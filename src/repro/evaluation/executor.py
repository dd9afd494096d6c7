"""Persistent warm worker pool for the bench fleet and the service.

A fleet of one :class:`multiprocessing.Process` per in-flight cell
isolates faults perfectly, but every cell pays a fresh interpreter fork
plus a cold import of the whole scheduling stack.  This module runs a pool
of *persistent* workers instead, which execute picklable ``fn(arg)`` tasks
back to back, amortising warm-up across tasks, while keeping the fleet's
fault-tolerance contract:

* a worker **crash** (killed, OOM-ed, ``os._exit``) is an isolated,
  attributable event — the task is reported as ``"crashed"`` with the exit
  code and a replacement worker is spawned; the pool never cascades into a
  ``BrokenProcessPool``-style failure;
* a task that overruns its **timeout** has its worker terminated (and
  replaced), reported as ``"timeout"``; cooperative
  :class:`~repro.core.budget.DeadlineExceeded` preemptions inside the
  worker are also ``"timeout"``, with the worker surviving to take the
  next task;
* **shutdown** (normal, error, ``KeyboardInterrupt``) terminates and joins
  every worker, so no child outlives the pool;
* **health checks**: :meth:`WorkerPool.health` reports per-worker
  liveness/busyness/task counts from the parent's bookkeeping, and
  :meth:`WorkerPool.stats` aggregates spawn/restart/completion counters —
  the service's ``/v1/healthz`` endpoint surfaces both.

The pool is single-threaded by design: one owner thread calls
:meth:`submit`/:meth:`poll`; results are delivered as
:class:`TaskOutcome` batches from :meth:`poll`.  The bench runner blocks
in :meth:`poll`; the service's asyncio event loop instead watches
:meth:`WorkerPool.wait_handles` for readiness and calls ``poll(timeout=0)``.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Optional

from repro.core.budget import DeadlineExceeded

#: Outcome statuses a task can end with.
TASK_OK = "ok"
TASK_ERROR = "error"
TASK_TIMEOUT = "timeout"
TASK_CRASHED = "crashed"


@dataclass
class TaskOutcome:
    """Terminal report of one submitted task.

    ``status`` is ``"ok"`` (``value`` holds the return value), ``"error"``
    (the task raised; ``error`` holds ``TypeName: message``), ``"timeout"``
    (cooperative ``DeadlineExceeded`` or the harness timeout), or
    ``"crashed"`` (the worker died without reporting; ``exitcode`` holds
    its exit code).  ``seconds`` measures execution, not queueing.
    """

    task_id: int
    status: str
    value: object = None
    error: Optional[str] = None
    seconds: float = 0.0
    worker_pid: Optional[int] = None
    exitcode: Optional[int] = None


@dataclass
class _Task:
    task_id: int
    fn: Callable
    arg: object
    timeout: Optional[float]
    started: float = 0.0


@dataclass
class _Worker:
    ident: int
    process: multiprocessing.Process
    conn: object
    tasks_completed: int = 0
    task: Optional[_Task] = None


def _worker_main(conn, warmup) -> None:
    """Long-lived worker loop: receive tasks, execute, report, repeat.

    A worker reports ``("ok", id, value, seconds)``, ``("timeout", id,
    message, seconds)`` (cooperative preemption) or ``("error", id,
    message, seconds)``; dying without reporting is a crash the parent
    attributes via the process sentinel and exit code.
    """
    if warmup is not None:
        try:
            warmup()
        except Exception:  # noqa: BLE001 - warm-up is an optimisation only
            pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent went away
        if message[0] == "stop":
            break
        _, task_id, fn, arg = message
        start = time.monotonic()
        try:
            value = fn(arg)
        except DeadlineExceeded as exc:
            # Cooperative preemption beats the parent's terminate(): the
            # task is a clean timeout and this worker survives to take the
            # next one.
            reply = ("timeout", task_id, str(exc), time.monotonic() - start)
        except BaseException as exc:  # noqa: BLE001 - reported per task
            reply = (
                "error",
                task_id,
                f"{type(exc).__name__}: {exc}",
                time.monotonic() - start,
            )
        else:
            reply = ("ok", task_id, value, time.monotonic() - start)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break
    conn.close()


class WorkerPool:
    """A fixed-size pool of persistent worker processes.

    *jobs* workers are spawned eagerly (warm by the time the first task
    lands); *warmup*, when given, is a picklable zero-argument callable
    each worker runs once before its task loop — e.g. importing the
    scheduling stack so tasks only pay solver time.
    """

    def __init__(
        self,
        jobs: int,
        warmup: Optional[Callable[[], None]] = None,
        name: str = "pool",
    ):
        if jobs < 1:
            raise ValueError("a pool needs at least one worker")
        self.name = name
        self._jobs = jobs
        self._warmup = warmup
        self._ctx = multiprocessing.get_context()
        self._next_task_id = 0
        self._next_worker_ident = 0
        self._backlog: deque[_Task] = deque()
        self._spawned = 0
        self._restarts = 0
        self._tasks_completed = 0
        self._closed = False
        self._workers: list[_Worker] = [self._spawn() for _ in range(jobs)]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._warmup),
            daemon=True,
            name=f"{self.name}-worker-{self._next_worker_ident}",
        )
        process.start()
        child_conn.close()
        worker = _Worker(
            ident=self._next_worker_ident, process=process, conn=parent_conn
        )
        self._next_worker_ident += 1
        self._spawned += 1
        return worker

    def _restart(self, worker: _Worker, terminate: bool) -> None:
        """Replace a dead or overrunning worker with a fresh one."""
        if terminate:
            _terminate_process(worker.process)
        else:
            _reap_process(worker.process)
        worker.conn.close()
        self._restarts += 1
        self._workers[self._workers.index(worker)] = self._spawn()

    def shutdown(self) -> None:
        """Terminate and join every worker; idempotent, never raises late.

        Idle workers are asked to stop and briefly joined (a clean exit
        keeps coverage/atexit hooks intact); anything still alive after
        that — busy workers included — is terminated and joined, so no
        child outlives the pool even on ``KeyboardInterrupt``.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.task is None and worker.process.is_alive():
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._workers:
            try:
                if worker.task is None:
                    worker.process.join(timeout=1.0)
                _terminate_process(worker.process)
            finally:
                worker.conn.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # Work
    # ------------------------------------------------------------------ #
    def submit(
        self, fn: Callable, arg: object, timeout: Optional[float] = None
    ) -> int:
        """Queue ``fn(arg)`` for execution; returns the task id.

        The task starts immediately when a worker is idle, otherwise it
        waits in the pool's backlog and is dispatched by :meth:`poll` as
        workers free up.  *timeout* bounds execution (not queueing): an
        overrunning worker is terminated and the task reported as
        ``"timeout"``.
        """
        if self._closed:
            raise ValueError("pool is shut down")
        task = _Task(task_id=self._next_task_id, fn=fn, arg=arg, timeout=timeout)
        self._next_task_id += 1
        worker = self._idle_worker()
        if worker is not None:
            self._dispatch(worker, task)
        else:
            self._backlog.append(task)
        return task.task_id

    def _idle_worker(self) -> Optional[_Worker]:
        for worker in self._workers:
            if worker.task is None:
                return worker
        return None

    def _dispatch(self, worker: _Worker, task: _Task) -> None:
        # An idle worker can die between tasks (externally killed); the
        # send fails rather than the task, so replace and retry once.
        try:
            worker.conn.send(("task", task.task_id, task.fn, task.arg))
        except (BrokenPipeError, OSError):
            self._restart(worker, terminate=False)
            replacement = self._idle_worker()
            assert replacement is not None
            replacement.conn.send(("task", task.task_id, task.fn, task.arg))
            worker = replacement
        task.started = time.monotonic()
        worker.task = task

    def idle_count(self) -> int:
        """Number of workers ready for an immediate dispatch."""
        if self._backlog:
            return 0
        return sum(1 for worker in self._workers if worker.task is None)

    def busy_count(self) -> int:
        return sum(1 for worker in self._workers if worker.task is not None)

    def backlog_size(self) -> int:
        return len(self._backlog)

    def wait_handles(self) -> list:
        """Connections and process sentinels of the busy workers.

        One of them becomes readable when a busy worker reports or dies —
        the moment :meth:`poll` has an outcome to collect.  Handles change
        whenever a worker is replaced, so take a fresh list after every
        :meth:`submit`/:meth:`poll`.
        """
        busy = [worker for worker in self._workers if worker.task is not None]
        return [worker.conn for worker in busy] + [
            worker.process.sentinel for worker in busy
        ]

    def poll(self, timeout: float = 0.2) -> list[TaskOutcome]:
        """Collect finished tasks, enforcing timeouts and crash-restart.

        Blocks up to *timeout* seconds for a worker to report or die (the
        interval also paces timeout enforcement), then drains every
        available event and dispatches backlog tasks onto freed workers.
        Returns immediately with ``[]`` when nothing is in flight.
        """
        handles = self.wait_handles()
        if handles and timeout > 0:
            connection_wait(handles, timeout=timeout)
        now = time.monotonic()
        outcomes: list[TaskOutcome] = []
        for worker in list(self._workers):
            task = worker.task
            if task is None:
                continue
            message = None
            if worker.conn.poll():
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    message = None  # died mid-send: treat as a crash
            if message is not None:
                status, task_id, body, seconds = message
                outcomes.append(
                    TaskOutcome(
                        task_id=task_id,
                        status=status,
                        value=body if status == TASK_OK else None,
                        error=None if status == TASK_OK else body,
                        seconds=seconds,
                        worker_pid=worker.process.pid,
                    )
                )
                worker.task = None
                worker.tasks_completed += 1
                self._tasks_completed += 1
            elif not worker.process.is_alive():
                exitcode = worker.process.exitcode
                outcomes.append(
                    TaskOutcome(
                        task_id=task.task_id,
                        status=TASK_CRASHED,
                        error=f"worker crashed (exit code {exitcode})",
                        seconds=now - task.started,
                        worker_pid=worker.process.pid,
                        exitcode=exitcode,
                    )
                )
                self._tasks_completed += 1
                self._restart(worker, terminate=False)
            elif task.timeout is not None and now - task.started > task.timeout:
                outcomes.append(
                    TaskOutcome(
                        task_id=task.task_id,
                        status=TASK_TIMEOUT,
                        error=f"exceeded {task.timeout:.0f}s harness timeout",
                        seconds=now - task.started,
                        worker_pid=worker.process.pid,
                    )
                )
                self._tasks_completed += 1
                self._restart(worker, terminate=True)
        while self._backlog:
            worker = self._idle_worker()
            if worker is None:
                break
            self._dispatch(worker, self._backlog.popleft())
        return outcomes

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    def health(self) -> list[dict]:
        """Per-worker health snapshot (parent-side bookkeeping, no IPC)."""
        return [
            {
                "worker": worker.ident,
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "busy": worker.task is not None,
                "tasks_completed": worker.tasks_completed,
            }
            for worker in self._workers
        ]

    def stats(self) -> dict:
        """Aggregate pool counters (includes the crash-restart count)."""
        return {
            "jobs": self._jobs,
            "workers_spawned": self._spawned,
            "worker_restarts": self._restarts,
            "tasks_completed": self._tasks_completed,
            "backlog": len(self._backlog),
            "busy": self.busy_count(),
        }


def _reap_process(process: multiprocessing.Process) -> None:
    """Join a finished worker (it exited or is exiting after reporting)."""
    process.join(timeout=10.0)
    if process.is_alive():  # pragma: no cover - defensive
        process.kill()
        process.join(timeout=10.0)


def _terminate_process(process: multiprocessing.Process) -> None:
    """Terminate a live worker and wait until it is really gone."""
    if process.is_alive():
        process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
    else:
        process.join(timeout=5.0)
