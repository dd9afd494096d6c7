"""Scheduling-as-a-service: asyncio HTTP/JSON front end of the scheduler.

Stdlib only — the server speaks HTTP/1.1 by hand over
:func:`asyncio.start_server`; there is deliberately no web framework.

Endpoints
---------

``POST /v1/schedule``
    Submit a scheduling problem (JSON body, see
    :func:`repro.core.problem.problem_from_document`).  The response is an
    **anytime stream** of chunked JSON lines (``Transfer-Encoding: chunked``,
    ``application/x-ndjson``), one event object per line, in order (an
    HTTP/1.0 client, which cannot read chunks, gets the same lines as a
    body that ends when the server closes the connection):

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
    ``deadline`` (:func:`check_solver_fields`).

``GET /v1/healthz``
    Liveness plus per-worker health from the pool's bookkeeping.

``GET /v1/stats``
    Aggregate counters: requests, cache hits/misses/hit-rate, pool stats.

Connections
-----------

Connections persist, as HTTP/1.1 makes the default: one connection
carries any number of requests in turn, each response delimited by its
``Content-Length`` or by the chunked terminator and stamped
``Connection: keep-alive``.  The server closes a connection

* after answering a request that says ``Connection: close``, or an
  HTTP/1.0 request that does not ask for ``keep-alive``;
* after the event stream of an HTTP/1.0 ``POST /v1/schedule``;
* after answering a malformed request whose body it did not read with a
  ``400``;
* when the client closes or resets it;
* when it has waited :data:`IDLE_TIMEOUT_S` seconds for its next request;
* at shutdown (:meth:`ServiceServer.aclose`).

The responses of the first three cases say ``Connection: close``.  A miss
holds its connection until its result event has been sent.

Architecture: requests land on the asyncio event loop, which performs
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
up to 5 s more); after a crash it joins for up to 10 s.  A worker that
exits promptly costs milliseconds; one that does not stalls every
connection for as long as the join waits.
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
from typing import Callable, Optional

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
from repro.service.ledger import RequestLedger

#: ``termination`` stamp of events emitted while the solve is in flight.
TERMINATION_PENDING = "pending"

#: Seconds a connection may wait for its next request before the server
#: closes it.
IDLE_TIMEOUT_S = 30.0

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    503: "Service Unavailable",
}

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
    and the queue is full, :meth:`try_submit` refuses and the server
    answers 503 instead of accumulating unbounded work it cannot finish.
    Replacing a crashed or overrunning worker (terminate, join, fork) also
    runs on the loop and stalls it, cache hits included: for as long as the
    old process takes to exit, which the pool waits for up to 5 s after
    ``terminate`` and 5 s more after ``kill`` when a request overran its
    hard timeout, and up to 10 s (then 10 s more after ``kill``) when a
    worker crashed.  Every method must be called from that loop's thread.

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

        The ledger and the cache stay open: the handler of a job failed
        here still records its verdict.  :meth:`close` closes them.
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

        Behind a server, call it only once the server's handlers have
        finished (:meth:`RunningService.aclose`).
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

    def queue_depth(self) -> int:
        return len(self._waiting)

    def health(self) -> dict:
        pool_stats = self._pool.stats()
        workers = self._pool.health()
        return {
            "status": "ok" if any(w["alive"] for w in workers) else "degraded",
            "workers": workers,
            "pool": pool_stats,
            "queue": {"depth": len(self._waiting), "limit": self.queue_limit},
            "cache": self.cache.stats(),
            "counters": dict(self.counters),
        }

    def stats(self) -> dict:
        return {
            "counters": dict(self.counters),
            "cache": self.cache.stats(),
            "pool": self._pool.stats(),
            "queue": {"depth": len(self._waiting), "limit": self.queue_limit},
        }

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


# --------------------------------------------------------------------------- #
# HTTP layer
# --------------------------------------------------------------------------- #
class _BadRequest(Exception):
    pass


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[tuple[str, str, bool, bool, bytes]]:
    """Read one request: ``(method, target, chunked, keep_alive, body)``.

    None when the client closed the connection before a request line.
    ``chunked`` says whether the client can read a chunked response, which
    only HTTP/1.1 defines.  ``keep_alive`` is HTTP/1.1's default unless
    the request says ``Connection: close``; HTTP/1.0 must ask for
    ``keep-alive``.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _BadRequest("malformed request line")
    method, target, version = parts
    headers: dict[str, str] = {}
    total = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise _BadRequest("header section too large")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        # Only Content-Length frames a request body; anything else would
        # leave the rest of the body to be read as the next request.
        raise _BadRequest("request bodies must carry Content-Length")
    length = int(headers.get("content-length", "0") or "0")
    if length > _MAX_BODY_BYTES:
        raise _BadRequest("request body too large")
    body = await reader.readexactly(length) if length else b""
    tokens = {t.strip().lower() for t in headers.get("connection", "").split(",")}
    chunked = version == "HTTP/1.1"
    if chunked:
        keep_alive = "close" not in tokens
    else:
        keep_alive = "keep-alive" in tokens
    return method, target, chunked, keep_alive, body


def _connection_header(keep_alive: bool) -> str:
    return f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"


async def _send_json(
    writer: asyncio.StreamWriter, status: int, obj: dict, keep_alive: bool
) -> None:
    body = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{_connection_header(keep_alive)}"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


def _stream_head(chunked: bool, keep_alive: bool) -> bytes:
    """Status line and headers of an ndjson event stream.

    Without chunking (an HTTP/1.0 client) the body ends when the
    connection closes, so the stream always says ``Connection: close``.
    """
    framing = "Transfer-Encoding: chunked\r\n" if chunked else ""
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: application/x-ndjson\r\n"
        f"{framing}"
        f"{_connection_header(keep_alive and chunked)}"
        "\r\n"
    ).encode("latin-1")


def _event(event: dict, chunked: bool) -> bytes:
    """One event as one JSON line, in a chunk of its own when *chunked*."""
    line = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
    if not chunked:
        return line
    return f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n"


#: Terminator of a chunked response; it delimits each stream on a
#: persistent connection.  An unchunked stream ends with its connection.
_LAST_CHUNK = b"0\r\n\r\n"


def _start_stream(
    writer: asyncio.StreamWriter, chunked: bool, keep_alive: bool
) -> Callable:
    """Open an ndjson event stream; returns ``send(event)``."""
    writer.write(_stream_head(chunked, keep_alive))

    async def send(event: dict) -> None:
        writer.write(_event(event, chunked))
        await writer.drain()

    return send


class ServiceServer:
    """asyncio HTTP server wired to a :class:`SchedulingService`.

    Connections persist (module docstring, *Connections*):
    :meth:`_handle_connection` serves requests in turn on one connection
    until a request asks to close or is malformed, the client goes away,
    the connection waits :data:`IDLE_TIMEOUT_S` for a request, or
    :meth:`aclose` shuts the server down.  The server
    closes a connection of its own accord only while it is idle, so a
    client that finds a reused connection closed before any response byte
    knows its request was never read.
    """

    def __init__(
        self,
        service: SchedulingService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()  # awaiting a request
        self._closed = False

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop listening, close every connection and wait until all have.

        Idle connections close at once, busy ones after their current
        response, so a pending miss holds this until the service answers
        it (:meth:`RunningService.aclose` stops the service first, which
        answers every pending miss).  An idle connection left open would
        hold it for :data:`IDLE_TIMEOUT_S`, and so would it hold
        ``Server.wait_closed``, which waits for every open connection on
        Python 3.12+.
        """
        self._closed = True
        if self._server is not None:
            self._server.close()
            for writer in self._idle:
                writer.close()
            if self._handlers:
                await asyncio.wait(self._handlers)
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.service.counters["connections_accepted"] += 1
        handler = asyncio.current_task()
        self._handlers.add(handler)
        loop = asyncio.get_running_loop()
        try:
            keep_alive = True
            while keep_alive and not self._closed:
                self._idle.add(writer)
                idle = loop.call_later(IDLE_TIMEOUT_S, writer.close)
                try:
                    request = await _read_request(reader)
                except (_BadRequest, ValueError, asyncio.IncompleteReadError) as exc:
                    if not writer.is_closing():
                        await _send_json(
                            writer, 400, {"error": str(exc)}, keep_alive=False
                        )
                    return
                finally:
                    idle.cancel()
                    self._idle.discard(writer)
                if request is None:
                    return
                method, target, chunked, keep_alive, body = request
                keep_alive = await self._route(
                    method, target, body, writer, chunked, keep_alive
                )
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            self._handlers.discard(handler)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        writer: asyncio.StreamWriter,
        chunked: bool,
        keep_alive: bool,
    ) -> bool:
        """Answer one request; returns whether the connection stays open."""
        if target == "/v1/schedule":
            if method != "POST":
                await _send_json(writer, 405, {"error": "POST required"}, keep_alive)
            else:
                return await self._handle_schedule(body, writer, chunked, keep_alive)
        elif target == "/v1/healthz":
            await _send_json(writer, 200, self.service.health(), keep_alive)
        elif target == "/v1/stats":
            await _send_json(writer, 200, self.service.stats(), keep_alive)
        else:
            await _send_json(writer, 404, {"error": f"no route {target}"}, keep_alive)
        return keep_alive

    async def _handle_schedule(
        self,
        body: bytes,
        writer: asyncio.StreamWriter,
        chunked: bool,
        keep_alive: bool,
    ) -> bool:
        """Answer ``POST /v1/schedule``; returns whether the connection
        stays open (an unchunked event stream ends with it)."""
        service = self.service
        try:
            doc = json.loads(body.decode("utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("request body must be a JSON object")
            if doc.get("selftest") and not service.allow_selftest:
                raise ValueError("selftest ops are disabled on this server")
            check_solver_fields(doc, service.default_strategy)
            problem = problem_from_document(doc)
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            service.counters["invalid_requests"] += 1
            await _send_json(
                writer, 400, {"error": f"{type(exc).__name__}: {exc}"}, keep_alive
            )
            return keep_alive

        request_id = service.next_request_id()
        service.counters["requests_total"] += 1
        received = time.monotonic()
        key = canonical_key(problem)

        cached_entry = service.cache.get(key)
        if cached_entry is not None:
            service.counters["cache_hits"] += 1
            await self._serve_cache_hit(
                writer, chunked, keep_alive, request_id, key, cached_entry, received
            )
            return keep_alive and chunked
        service.counters["cache_misses"] += 1

        spec = {
            "problem": {
                "num_qubits": doc["num_qubits"],
                "gates": [list(gate) for gate in doc["gates"]],
                "layout": doc.get("layout", "bottom"),
                "shielding": doc.get("shielding"),
            },
            "strategy": doc.get("strategy"),
            "sat_backend": doc.get("sat_backend"),
            "time_limit": doc.get("time_limit", service.default_time_limit),
            "chaos_spec": doc.get("chaos_spec"),
        }
        if service.allow_selftest and doc.get("selftest"):
            spec["selftest"] = doc["selftest"]
        deadline = doc.get("deadline")
        if deadline is not None:
            # The budget starts ticking NOW: queueing time counts against
            # the request, because the service promises end-to-end latency.
            spec["deadline"] = Deadline.after(float(deadline))

        job = service.try_submit(request_id, spec)
        if job is None:
            service.counters["rejected_queue_full"] += 1
            await _send_json(
                writer,
                503,
                {
                    "error": "request queue is full",
                    "queue_limit": service.queue_limit,
                    "request_id": request_id,
                },
                keep_alive,
            )
            return keep_alive

        if service.ledger is not None:
            service.ledger.record_request(request_id)
        send = _start_stream(writer, chunked, keep_alive)
        await send(
            {
                "event": "accepted",
                "request_id": request_id,
                "canonical_key": key,
                "cache": "miss",
                "queue_depth": service.queue_depth(),
                "termination": TERMINATION_PENDING,
            }
        )
        # The structured witness streams while the exact solve runs: the
        # client holds a validated schedule (an upper-bound certificate)
        # strictly before the certified optimum lands.
        loop = asyncio.get_running_loop()
        witness = await loop.run_in_executor(
            None, _witness_event, problem, request_id
        )
        await send(witness)
        outcome = await job.outcomes.get()
        result = self._result_event(outcome, request_id, key)
        if (
            outcome.status == TASK_OK
            and result.get("termination") == TERMINATION_CERTIFIED
            and result.get("optimal")
            and result.get("found")
        ):
            service.cache.put(
                key, {k: result[k] for k in _CACHEABLE_KEYS if k in result}
            )
        await send(result)
        if chunked:
            writer.write(_LAST_CHUNK)
            await writer.drain()
        self._finish_ledger(request_id, key, result, received)
        return keep_alive and chunked

    async def _serve_cache_hit(
        self,
        writer: asyncio.StreamWriter,
        chunked: bool,
        keep_alive: bool,
        request_id: str,
        key: str,
        entry: dict,
        received: float,
    ) -> None:
        """Send a hit's whole response in one write and one drain."""
        service = self.service
        if service.ledger is not None:
            service.ledger.record_request(request_id)
        accepted = {
            "event": "accepted",
            "request_id": request_id,
            "canonical_key": key,
            "cache": "hit",
            "queue_depth": service.queue_depth(),
            "termination": entry.get("termination", TERMINATION_CERTIFIED),
        }
        result = {
            "event": "result",
            "request_id": request_id,
            "canonical_key": key,
            "cached": True,
            "solver_probes": 0,
            **entry,
        }
        writer.write(
            _stream_head(chunked, keep_alive)
            + _event(accepted, chunked)
            + _event(result, chunked)
            + (_LAST_CHUNK if chunked else b"")
        )
        await writer.drain()
        service.counters["results_ok"] += 1
        self._finish_ledger(request_id, key, result, received)

    def _result_event(
        self, outcome: TaskOutcome, request_id: str, key: str
    ) -> dict:
        service = self.service
        base = {
            "event": "result",
            "request_id": request_id,
            "canonical_key": key,
            "cached": False,
            "worker_seconds": outcome.seconds,
        }
        if outcome.status == TASK_OK:
            payload = dict(outcome.value)
            service.counters[
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
            service.counters["worker_crashes"] += 1
            termination = TERMINATION_BACKEND_ERROR
        elif outcome.status == TASK_TIMEOUT:
            termination = TERMINATION_DEADLINE
        else:
            termination = TERMINATION_BACKEND_ERROR
        service.counters["results_degraded"] += 1
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
        if self.service.ledger is None:
            return
        self.service.ledger.record_verdict(
            request_id,
            {
                "canonical_key": key,
                "cached": bool(result.get("cached")),
                "termination": result.get("termination"),
                "status": "ok" if result.get("found") else "degraded",
                "seconds": time.monotonic() - received,
            },
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
    server: ServiceServer

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
        Its ledger and cache close last, once every handler has recorded
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
    server = ServiceServer(service, host=host, port=port)
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
