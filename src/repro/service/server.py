"""Scheduling-as-a-service: the scheduling half of the HTTP/JSON front end.

The wire dialect — request parsing, framing, keep-alive and the
connection loop — lives in :mod:`repro.service.http`, whose
:class:`~repro.service.http.HttpServer` hands every parsed request to
:meth:`SchedulingService.handle` and writes back the JSON response or
event stream it returns.  This module decides what the answer is:
routing, admission, the canonical key, the cache, dispatch to the worker
pool, the events, the counters and the ledger.

Endpoints
---------

``POST /v1/schedule``
    Submit a scheduling problem (JSON body, see
    :func:`repro.core.problem.problem_from_document`).  The response is an
    **anytime stream** of JSON lines (``application/x-ndjson``), one event
    object per line, in order:

    1. ``{"event": "accepted", ...}`` — request id, canonical key, cache
       hit/miss, queue depth;
    2. ``{"event": "witness", ...}`` — the validated structured witness
       and the analytic lower bound, streamed immediately while the exact
       solve is still running (omitted on cache hits — the certified
       answer is already at hand);
    3. ``{"event": "result", ...}`` — the final verdict: the certified
       optimum, a deadline-degraded best-known answer, or an error.

    Every post-accept event is stamped with a ``termination`` field —
    ``"pending"`` while the solve is in flight, then the report vocabulary
    of :data:`repro.core.report.TERMINATIONS` — plus the bound values and
    their provenance (``lower_bound_source`` / ``upper_bound_source``).
    ``solver_probes`` on the result counts SMT probes spent on *this*
    request: a cache hit reports ``0`` and ``"cached": true``.

    A full request queue is answered with ``503`` before any work starts;
    an invalid document with ``400`` — a malformed problem, but also an
    unknown ``strategy`` or ``sat_backend`` or a malformed ``time_limit`` /
    ``deadline`` (:func:`check_solver_fields`).  A miss holds its
    connection until its result event has been sent.

``GET /v1/healthz``
    Liveness plus per-worker health from the pool's bookkeeping.

``GET /v1/stats``
    Aggregate counters: requests, cache hits/misses/hit-rate, pool stats.

Architecture
------------

Requests land on the asyncio event loop, which performs
validation, canonicalisation and cache lookups inline (cheap, pure
Python) and is the single owner of the persistent
:class:`~repro.evaluation.executor.WorkerPool` — there is no dispatcher
thread.  A miss joins a **bounded** list of waiting jobs and is handed to
a worker on the next loop turn if one is idle.  The loop watches the
busy workers' pipes and process sentinels with ``add_reader``; when one
turns readable it collects the
:class:`~repro.evaluation.executor.TaskOutcome` with a non-blocking poll,
routes it to its request's ``asyncio.Queue`` and hands the freed worker
the next waiting job.  A timer enforces the harness timeout, the one
event no file descriptor signals.  Nothing sleeps on a fixed interval,
the loop never waits for a solve to finish, and backpressure is a 503,
not an unbounded buffer.  A worker crash mid-solve degrades that one
request to ``termination: "backend-error"`` while the pool replaces the
worker underneath.

Replacing a worker does block the loop thread, though: after a harness
timeout or a crash, ``WorkerPool.poll`` runs ``_restart`` inline, which
joins the old process and forks the replacement.  After a timeout it
terminates the worker and joins for up to 5 s (then kills it and joins
up to 5 s more); after a crash it joins for up to 10 s (and 10 s more
after a kill).  A worker that exits promptly costs milliseconds; one
that does not stalls every connection for as long as the join waits.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import AsyncIterator, Optional

from repro.core.budget import Deadline
from repro.core.canonical import canonical_key
from repro.core.problem import problem_from_document
from repro.core.report import (
    TERMINATION_BACKEND_ERROR,
    TERMINATION_CERTIFIED,
    TERMINATION_DEADLINE,
)
from repro.core.strategies import (
    DEFAULT_STRATEGY,
    available_strategies,
    get_strategy,
)
from repro.evaluation.executor import (
    TASK_CRASHED,
    TASK_OK,
    TASK_TIMEOUT,
    TaskOutcome,
    WorkerPool,
)
from repro.evaluation.runner import solve_job, warm_worker
from repro.service.cache import CertifiedResultCache
from repro.service.client import close_idle_connections
from repro.service.http import EventStream, HttpServer, JsonResponse, Request
from repro.service.ledger import RequestLedger

#: ``termination`` stamp of events emitted while the solve is in flight.
TERMINATION_PENDING = "pending"

#: Payload keys of a certified solve that are cached and replayed verbatim
#: to isomorphic re-submissions.  ``num_horizons``/``solver_seconds`` are
#: provenance of the original solve; the per-request ``solver_probes`` of
#: a replay is always 0.
_CACHEABLE_KEYS = (
    "found",
    "optimal",
    "validated",
    "termination",
    "num_stages",
    "num_rydberg_stages",
    "num_transfer_stages",
    "lower_bound",
    "upper_bound",
    "lower_bound_source",
    "upper_bound_source",
    "strategy",
    "sat_backend",
    "num_horizons",
    "solver_seconds",
)


# --------------------------------------------------------------------------- #
# Request documents
# --------------------------------------------------------------------------- #
def check_solver_fields(doc: dict, default_strategy: str) -> None:
    """Reject a request whose solver fields no worker could honour.

    ``strategy`` (``null`` selects *default_strategy*) must name a search
    strategy of :data:`repro.core.strategies.STRATEGIES` (the table the
    CLI's ``--strategy`` choices read) and ``sat_backend`` a registered SAT
    backend (``chaos:BACKEND`` included, which inherits BACKEND's
    availability) that is available on this host; ``chaos_spec`` must be
    ``null`` or a fault-plan string :meth:`FaultPlan.from_spec
    <repro.sat.chaos.FaultPlan.from_spec>` parses; ``time_limit`` and
    ``deadline`` must be ``null`` or finite non-negative numbers.  Raises
    ``ValueError``, which the server answers with ``400`` before the
    request takes a queue slot.
    """
    from repro.sat.backend import backend_info
    from repro.sat.chaos import FaultPlan

    strategy = doc.get("strategy")
    if strategy is None:
        strategy = default_strategy
    if not isinstance(strategy, str) or strategy not in available_strategies():
        raise ValueError(
            f"strategy must be null or one of {available_strategies()}, "
            f"got {strategy!r}"
        )
    backend = doc.get("sat_backend")
    if backend is not None:
        if not isinstance(backend, str):
            raise ValueError(f"sat_backend must be a string, got {backend!r}")
        info = backend_info(backend)
        if not info.is_available():
            raise ValueError(f"SAT backend {info.name!r} is unavailable here")
    chaos_spec = doc.get("chaos_spec")
    if chaos_spec is not None:
        if not isinstance(chaos_spec, str):
            raise ValueError(f"chaos_spec must be null or a string, got {chaos_spec!r}")
        FaultPlan.from_spec(chaos_spec)  # raises ValueError when malformed
    for name in ("time_limit", "deadline"):
        value = doc.get(name)
        if value is None:
            continue
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
            or value < 0
        ):
            raise ValueError(
                f"{name} must be null or a finite non-negative number, "
                f"got {value!r}"
            )


def _execute_service_solve(spec: dict) -> dict:
    """Worker-side execution of one service request (module-level: pickles).

    Runs the request's selftest op, if any, then the SMT job every bench
    cell runs (:func:`~repro.evaluation.runner.solve_job`).  Returns the
    result-event payload (without the ``event``/``cached`` stamps the
    server adds).  ``spec["deadline"]`` is an already-ticking
    :class:`~repro.core.budget.Deadline` started when the request was
    accepted, so queueing time counts against the request's budget — a
    service promises end-to-end latency, not solver latency.
    """
    selftest = spec.get("selftest") or {}
    op = selftest.get("op")
    if op == "crash":
        os._exit(int(selftest.get("exit_code", 66)))
    if op == "sleep":
        time.sleep(float(selftest.get("seconds", 60.0)))
    return solve_job(spec)


# --------------------------------------------------------------------------- #
# Service core (pool + waiting jobs, driven by the event loop)
# --------------------------------------------------------------------------- #
@dataclass
class _ServiceJob:
    """One accepted request: its spec plus the route back to its stream."""

    request_id: str
    spec: dict
    timeout: Optional[float]
    outcomes: "asyncio.Queue[TaskOutcome]" = field(default_factory=asyncio.Queue)


class SchedulingService:
    """The service core: waiting jobs, worker pool and cache, on one loop.

    The core has no thread of its own: the asyncio event loop that calls
    :meth:`try_submit` owns the pool.  It hands waiting jobs to idle
    workers, is woken by the busy workers' readiness (or the
    harness-timeout timer) and routes each outcome back to its request.
    ``queue_limit`` bounds *waiting* requests — when every worker is busy
    and the queue is full, :meth:`try_submit` refuses and :meth:`handle`
    answers 503 instead of accumulating unbounded work it cannot finish.
    Replacing a crashed or overrunning worker also runs on the loop and
    stalls it, cache hits included (module docstring, *Architecture*).
    Every method must be called from that loop's thread.

    *default_strategy* runs every request that names no strategy; an
    unknown name raises ``ValueError`` here rather than turning every such
    request into a 400.
    """

    def __init__(
        self,
        jobs: int = 2,
        queue_limit: int = 8,
        cache_path: str | os.PathLike | None = None,
        ledger_path: str | os.PathLike | None = None,
        default_strategy: str = DEFAULT_STRATEGY,
        default_time_limit: Optional[float] = None,
        hard_timeout: Optional[float] = None,
        allow_selftest: bool = False,
    ):
        get_strategy(default_strategy)  # raises ValueError before any fork
        self.default_strategy = default_strategy
        self.default_time_limit = default_time_limit
        self.hard_timeout = hard_timeout
        self.allow_selftest = allow_selftest
        self.queue_limit = max(1, queue_limit)
        self.cache = CertifiedResultCache(path=cache_path)
        self.ledger: Optional[RequestLedger] = (
            RequestLedger(ledger_path) if ledger_path is not None else None
        )
        self.counters = {
            "requests_total": 0,
            "invalid_requests": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "rejected_queue_full": 0,
            "results_ok": 0,
            "results_degraded": 0,
            "worker_crashes": 0,
            "connections_accepted": 0,
        }
        # The pool forks its workers eagerly here, before any server
        # thread exists — forking from a single-threaded parent is the
        # only portable-safe moment to do it.
        self._pool = WorkerPool(jobs, warmup=warm_worker, name="service")
        self._waiting: deque[_ServiceJob] = deque()
        self._inflight: dict[int, _ServiceJob] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._watched: list[int] = []  # fds registered with add_reader
        # Request ids carry a per-instance token so ids from successive
        # service lives never collide in a shared ledger file.
        self._instance = uuid.uuid4().hex[:8]
        self._request_ids = itertools.count(1)
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Fail every waiting and in-flight job, then stop the pool.

        The ledger and the cache stay open: the event stream of a job
        failed here still records its verdict.  :meth:`close` closes them.
        """
        if self._closed:
            return
        self._closed = True
        drained = list(self._inflight.values()) + list(self._waiting)
        self._inflight.clear()
        self._waiting.clear()
        self._unwatch()
        for job in drained:
            _fail_shutting_down(job)
        self._pool.shutdown()

    def close(self) -> None:
        """:meth:`stop`, then close the ledger and the cache.

        Behind a server, call it only once the server's connections have
        closed (:meth:`RunningService.aclose`).
        """
        self.stop()
        if self.ledger is not None:
            self.ledger.close()
        self.cache.close()

    def __enter__(self) -> "SchedulingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def next_request_id(self) -> str:
        return f"req-{self._instance}-{next(self._request_ids):06d}"

    def try_submit(self, request_id: str, spec: dict) -> Optional[_ServiceJob]:
        """Queue a solve; returns None when the bounded queue is full.

        The job reaches an idle worker on the next turn of the loop, so
        the caller can stream its ``accepted`` event first.  A spec without
        a ``strategy`` runs the service's :attr:`default_strategy`.
        """
        if len(self._waiting) >= self.queue_limit:
            return None
        if spec.get("strategy") is None:
            spec["strategy"] = self.default_strategy
        job = _ServiceJob(
            request_id=request_id, spec=spec, timeout=self.hard_timeout
        )
        if self._closed:
            _fail_shutting_down(job)
            return job
        self._loop = asyncio.get_running_loop()
        self._waiting.append(job)
        self._loop.call_soon(self._pump)
        return job

    def health(self) -> dict:
        workers = self._pool.health()
        return {
            "status": "ok" if any(w["alive"] for w in workers) else "degraded",
            "workers": workers,
            **self.stats(),
        }

    def stats(self) -> dict:
        return {
            "counters": dict(self.counters),
            "cache": self.cache.stats(),
            "pool": self._pool.stats(),
            "queue": {"depth": len(self._waiting), "limit": self.queue_limit},
        }

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def handle(self, request: Request) -> JsonResponse | EventStream:
        """Answer one request (the :data:`~repro.service.http.Handler`)."""
        if request.target == "/v1/schedule":
            if request.method != "POST":
                return JsonResponse(405, {"error": "POST required"})
            return self._schedule(request.body)
        if request.target == "/v1/healthz":
            return JsonResponse(200, self.health())
        if request.target == "/v1/stats":
            return JsonResponse(200, self.stats())
        return JsonResponse(404, {"error": f"no route {request.target}"})

    def connection_opened(self) -> None:
        self.counters["connections_accepted"] += 1

    def _schedule(self, body: bytes) -> JsonResponse | EventStream:
        """Answer ``POST /v1/schedule``: admission, then the cache or a worker."""
        try:
            doc = json.loads(body.decode("utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("request body must be a JSON object")
            if doc.get("selftest") and not self.allow_selftest:
                raise ValueError("selftest ops are disabled on this server")
            check_solver_fields(doc, self.default_strategy)
            problem = problem_from_document(doc)
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            self.counters["invalid_requests"] += 1
            return JsonResponse(400, {"error": f"{type(exc).__name__}: {exc}"})

        request_id = self.next_request_id()
        self.counters["requests_total"] += 1
        received = time.monotonic()
        key = canonical_key(problem)

        cached_entry = self.cache.get(key)
        if cached_entry is not None:
            self.counters["cache_hits"] += 1
            return EventStream(self._hit_events(request_id, key, cached_entry, received))
        self.counters["cache_misses"] += 1

        spec = {
            "problem": {
                "num_qubits": doc["num_qubits"],
                "gates": [list(gate) for gate in doc["gates"]],
                "layout": doc.get("layout", "bottom"),
                "shielding": doc.get("shielding"),
            },
            "strategy": doc.get("strategy"),
            "sat_backend": doc.get("sat_backend"),
            "time_limit": doc.get("time_limit", self.default_time_limit),
            "chaos_spec": doc.get("chaos_spec"),
        }
        if self.allow_selftest and doc.get("selftest"):
            spec["selftest"] = doc["selftest"]
        deadline = doc.get("deadline")
        if deadline is not None:
            # The budget starts ticking NOW: queueing time counts against
            # the request, because the service promises end-to-end latency.
            spec["deadline"] = Deadline.after(float(deadline))

        job = self.try_submit(request_id, spec)
        if job is None:
            self.counters["rejected_queue_full"] += 1
            return JsonResponse(
                503,
                {
                    "error": "request queue is full",
                    "queue_limit": self.queue_limit,
                    "request_id": request_id,
                },
            )

        accepted = self._accepted(request_id, key, "miss", TERMINATION_PENDING)
        return EventStream(self._miss_events(job, problem, accepted, received))

    def _accepted(
        self, request_id: str, key: str, cache: str, termination: str
    ) -> dict:
        """Record *request_id* in the ledger; its ``accepted`` event."""
        if self.ledger is not None:
            self.ledger.record_request(request_id)
        return {
            "event": "accepted",
            "request_id": request_id,
            "canonical_key": key,
            "cache": cache,
            "queue_depth": len(self._waiting),
            "termination": termination,
        }

    def _hit_events(
        self, request_id: str, key: str, entry: dict, received: float
    ) -> list[dict]:
        """A hit's whole stream, sent in one write and one drain."""
        termination = entry.get("termination", TERMINATION_CERTIFIED)
        accepted = self._accepted(request_id, key, "hit", termination)
        result = {
            "event": "result",
            "request_id": request_id,
            "canonical_key": key,
            "cached": True,
            "solver_probes": 0,
            **entry,
        }
        self.counters["results_ok"] += 1
        self._finish_ledger(request_id, key, result, received)
        return [accepted, result]

    async def _miss_events(
        self, job: _ServiceJob, problem, accepted: dict, received: float
    ) -> AsyncIterator[dict]:
        """A miss's stream: accepted, witness, then the worker's result."""
        request_id, key = job.request_id, accepted["canonical_key"]
        yield accepted
        # The structured witness streams while the exact solve runs: the
        # client holds a validated schedule (an upper-bound certificate)
        # strictly before the certified optimum lands.
        loop = asyncio.get_running_loop()
        yield await loop.run_in_executor(None, _witness_event, problem, request_id)
        outcome = await job.outcomes.get()
        result = self._result_event(outcome, request_id, key)
        if (
            outcome.status == TASK_OK
            and result.get("termination") == TERMINATION_CERTIFIED
            and result.get("optimal")
            and result.get("found")
        ):
            self.cache.put(key, {k: result[k] for k in _CACHEABLE_KEYS if k in result})
        yield result
        self._finish_ledger(request_id, key, result, received)

    def _result_event(self, outcome: TaskOutcome, request_id: str, key: str) -> dict:
        base = {
            "event": "result",
            "request_id": request_id,
            "canonical_key": key,
            "cached": False,
            "worker_seconds": outcome.seconds,
        }
        if outcome.status == TASK_OK:
            payload = dict(outcome.value)
            self.counters[
                "results_ok"
                if payload.get("termination") == TERMINATION_CERTIFIED
                else "results_degraded"
            ] += 1
            return {
                **base,
                "solver_probes": payload.get("num_horizons", 0),
                **payload,
            }
        if outcome.status == TASK_CRASHED:
            # The worker died mid-solve (the pool has already replaced
            # it); to the client this is a backend error on this request,
            # not a service outage.
            self.counters["worker_crashes"] += 1
        self.counters["results_degraded"] += 1
        if outcome.status == TASK_TIMEOUT:
            termination = TERMINATION_DEADLINE
        else:
            termination = TERMINATION_BACKEND_ERROR
        return {
            **base,
            "solver_probes": 0,
            "found": False,
            "optimal": False,
            "termination": termination,
            "error": outcome.error,
        }

    def _finish_ledger(
        self, request_id: str, key: str, result: dict, received: float
    ) -> None:
        if self.ledger is None:
            return
        self.ledger.record_verdict(
            request_id,
            {
                "canonical_key": key,
                "cached": bool(result.get("cached")),
                "termination": result.get("termination"),
                "status": "ok" if result.get("found") else "degraded",
                "seconds": time.monotonic() - received,
            },
        )

    # ------------------------------------------------------------------ #
    # Dispatch (event-loop callbacks)
    # ------------------------------------------------------------------ #
    def _pump(self) -> None:
        """Hand waiting jobs to idle workers, then re-arm the wake-ups."""
        if self._closed:
            return
        while self._waiting and self._pool.idle_count() > 0:
            job = self._waiting.popleft()
            task_id = self._pool.submit(
                _execute_service_solve, job.spec, timeout=job.timeout
            )
            self._inflight[task_id] = job
            if job.timeout is not None:
                # The pool starts the task's clock inside submit(), so this
                # timer always fires after the pool deems the task overdue;
                # a timer for a task that already finished is a no-op poll.
                self._loop.call_later(job.timeout, self._on_ready)
        self._watch()

    def _on_ready(self) -> None:
        """A busy worker reported or died, or a harness timeout passed."""
        if self._closed:
            return
        # Unregister before poll(): replacing a worker closes its pipe and
        # sentinel, and an epoll registration of a closed descriptor that
        # a forked child still holds open would stay readable forever.
        self._unwatch()
        for outcome in self._pool.poll(timeout=0):
            self._inflight.pop(outcome.task_id).outcomes.put_nowait(outcome)
        self._pump()

    def _watch(self) -> None:
        """Wake on the busy workers' pipes and process sentinels.

        Readers are registered from scratch each time: a replaced worker's
        pipe may reuse a closed descriptor's number, and a stale
        registration would never fire for it.
        """
        self._unwatch()
        self._watched = [
            handle if isinstance(handle, int) else handle.fileno()
            for handle in self._pool.wait_handles()
        ]
        for fd in self._watched:
            self._loop.add_reader(fd, self._on_ready)

    def _unwatch(self) -> None:
        for fd in self._watched:
            self._loop.remove_reader(fd)
        self._watched = []


def _fail_shutting_down(job: _ServiceJob) -> None:
    """End *job*'s stream with a backend error: no stream hangs on close."""
    job.outcomes.put_nowait(
        TaskOutcome(task_id=-1, status="error", error="service shutting down")
    )


def _witness_event(problem, request_id: str) -> dict:
    """The anytime witness: analytic lower bound + structured upper bound.

    Runs in a thread-pool executor (pure Python, but milliseconds of
    work the event loop should not absorb under concurrency).
    """
    from repro.core.strategies.search import (
        structured_upper_bound,
        witness_source,
    )

    breakdown = problem.bound_breakdown()
    event = {
        "event": "witness",
        "request_id": request_id,
        "termination": TERMINATION_PENDING,
        "lower_bound": breakdown.total,
        "lower_bound_source": breakdown.source,
        "found": False,
        "validated": False,
    }
    witness = structured_upper_bound(problem)
    if witness is not None:
        event.update(
            found=True,
            validated=True,
            num_stages=witness.num_stages,
            num_rydberg_stages=witness.num_rydberg_stages,
            num_transfer_stages=witness.num_transfer_stages,
            upper_bound=witness.num_stages,
            upper_bound_source=witness_source(witness),
        )
    return event


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
@dataclass
class RunningService:
    """A started service + server pair (tests and the load-test harness)."""

    service: SchedulingService
    server: HttpServer

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    async def aclose(self) -> None:
        """Close the service, the server and this process's pooled client
        connections to it.

        The service stops first: it ends every pending miss with a
        ``backend-error`` result, so no busy connection holds the server.
        Its ledger and cache close last, once every stream has recorded
        its verdict.
        """
        self.service.stop()
        await self.server.aclose()
        self.service.close()
        close_idle_connections(self.host, self.port)


async def start_service(
    host: str = "127.0.0.1", port: int = 0, **config
) -> RunningService:
    """Start a service and its HTTP server on *host*:*port* (0 = ephemeral)."""
    service = SchedulingService(**config)
    server = HttpServer(service.handle, service.connection_opened, host, port)
    try:
        await server.start()
    except BaseException:
        service.close()
        raise
    return RunningService(service=service, server=server)


def run_service(host: str = "127.0.0.1", port: int = 8537, **config) -> None:
    """Blocking entry point of ``repro-nasp serve`` (Ctrl-C to stop)."""

    async def _serve() -> None:
        running = await start_service(host=host, port=port, **config)
        print(
            f"repro-nasp service listening on http://{running.host}:{running.port} "
            f"(jobs={running.service._pool.stats()['jobs']}, "
            f"queue_limit={running.service.queue_limit})",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await running.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
