"""End-to-end and concurrency tests of the scheduling service.

Every test runs a real service on an ephemeral localhost port — real
worker processes, real HTTP over a real socket, the real chunked-ndjson
stream — because the service's contract is precisely its wire behaviour:
event order, termination stamps, cache semantics, 503 backpressure, and
crash containment.
"""

import asyncio
import time

import pytest

from repro.core.report import TERMINATION_CERTIFIED
from repro.evaluation.runner import SMT_INSTANCES, execute_spec, smt_suite
from repro.evaluation.executor import TASK_OK
from repro.service import (
    SchedulingService,
    get_json,
    load_ledger,
    start_service,
    stream_schedule,
)
from repro.service.server import TERMINATION_PENDING, check_solver_fields

#: Triangle under the relabeling 0->2, 1->0, 2->1 with shuffled gate and
#: endpoint order: byte-distinct from SMT_INSTANCES["triangle"] but
#: isomorphic to it.
RELABELED_TRIANGLE = [[1, 0], [2, 1], [0, 2]]


def _doc(name="triangle", gates=None, **extra):
    num_qubits, instance_gates = SMT_INSTANCES[name]
    return {
        "num_qubits": num_qubits,
        "gates": [list(gate) for gate in (gates or instance_gates)],
        "layout": "bottom",
        **extra,
    }


def _run(coro_fn, **config):
    """Start a service, run *coro_fn(running)*, always tear down."""

    async def _main():
        running = await start_service(**config)
        try:
            return await coro_fn(running)
        finally:
            await running.aclose()

    return asyncio.run(_main())


async def _wait_for(predicate, running, deadline=30.0):
    """Poll /v1/stats until *predicate(stats)* holds."""
    for _ in range(int(deadline / 0.05)):
        _status, stats = await get_json(running.host, running.port, "/v1/stats")
        if predicate(stats):
            return stats
        await asyncio.sleep(0.05)
    raise AssertionError("condition not reached before the deadline")


async def _assert_loop_idle():
    """Fail if the event loop burns CPU while nothing is in flight.

    A replaced worker's descriptors must leave the loop's selector: a stale
    registration reads as EOF forever and spins the loop.
    """
    cpu = time.process_time()
    await asyncio.sleep(0.5)
    assert time.process_time() - cpu < 0.25


# --------------------------------------------------------------------------- #
# The anytime stream
# --------------------------------------------------------------------------- #
def test_stream_delivers_witness_before_certified_result():
    async def scenario(running):
        status, events = await stream_schedule(
            running.host, running.port, _doc("ring-4", deadline=60.0)
        )
        assert status == 200
        kinds = [event["event"] for event in events]
        assert kinds == ["accepted", "witness", "result"]

        accepted, witness, result = events
        assert accepted["termination"] == TERMINATION_PENDING
        assert accepted["cache"] == "miss"
        assert accepted["request_id"].startswith("req-")
        assert len(accepted["canonical_key"]) == 64

        # The witness is a *validated* schedule delivered strictly before
        # the certified result: an anytime upper-bound certificate with
        # full bound provenance.
        assert witness["termination"] == TERMINATION_PENDING
        assert witness["validated"] is True
        assert witness["found"] is True
        assert witness["lower_bound"] >= 1
        assert witness["lower_bound_source"]
        assert witness["upper_bound_source"].startswith("structured-")
        assert witness["num_stages"] >= witness["lower_bound"]

        assert result["termination"] == TERMINATION_CERTIFIED
        assert result["optimal"] is True
        assert result["cached"] is False
        assert result["validated"] is True
        # The exact optimum can only confirm or improve the witness.
        assert result["num_stages"] <= witness["num_stages"]
        assert result["lower_bound"] == result["num_stages"]

    _run(scenario, jobs=1, default_time_limit=60.0)


def test_service_miss_and_bench_cell_share_the_solver_payload():
    """Both callers run the one SMT job on the same request document."""
    [cell] = smt_suite(
        strategies=("bisection",), instances=["triangle"], layout_kinds=("bottom",)
    )
    bench = execute_spec(cell.spec)

    async def scenario(running):
        doc = {**cell.spec["problem"], "strategy": "bisection"}
        status, events = await stream_schedule(running.host, running.port, doc)
        assert status == 200
        return events[-1]

    served = _run(scenario, jobs=1)
    assert served["cached"] is False
    fields = (
        "stages_tried",
        "num_horizons",
        "lower_bound",
        "upper_bound",
        "lower_bound_source",
        "upper_bound_source",
        "termination",
        "num_stages",
    )
    assert {key: served[key] for key in fields} == {key: bench[key] for key in fields}
    assert bench["termination"] == TERMINATION_CERTIFIED


def test_tight_deadline_still_delivers_validated_witness_first():
    async def scenario(running):
        # A deadline far too small to finish any SMT probe: the witness
        # (validated, termination "pending") must still stream, and the
        # result degrades to termination "deadline" instead of erroring —
        # the client always ends the exchange holding a usable schedule.
        status, events = await stream_schedule(
            running.host,
            running.port,
            _doc("triangle", strategy="linear", deadline=0.001),
        )
        assert status == 200
        kinds = [event["event"] for event in events]
        assert kinds == ["accepted", "witness", "result"]
        witness, result = events[1], events[2]
        assert witness["termination"] == TERMINATION_PENDING
        assert witness["validated"] is True
        assert result["termination"] == "deadline"
        assert result["optimal"] is False
        assert result["cached"] is False
        # Uncertified results must never poison the cache: a relabeled
        # resubmission with a generous budget certifies via the solver.
        status, events = await stream_schedule(
            running.host,
            running.port,
            _doc("triangle", gates=RELABELED_TRIANGLE, strategy="linear"),
        )
        assert status == 200
        assert events[0]["cache"] == "miss"
        assert events[-1]["termination"] == TERMINATION_CERTIFIED

    _run(scenario, jobs=1, default_time_limit=60.0)


def test_isomorphic_resubmission_is_served_from_cache():
    async def scenario(running):
        # First submission certifies via the solver.  The linear strategy
        # on the triangle always spends SMT probes (bisection can certify
        # witness-only with zero probes, which would be indistinguishable
        # from a cache hit by probe count).
        status, first = await stream_schedule(
            running.host,
            running.port,
            _doc("triangle", strategy="linear"),
        )
        assert status == 200
        first_result = first[-1]
        assert first_result["event"] == "result"
        assert first_result["termination"] == TERMINATION_CERTIFIED
        assert first_result["cached"] is False
        assert first_result["solver_probes"] >= 1

        # Second submission: isomorphic but byte-distinct (relabeled
        # qubits, shuffled gates).  Served from cache: zero solver probes,
        # the identical certified optimum, no witness event needed.
        status, second = await stream_schedule(
            running.host,
            running.port,
            _doc("triangle", gates=RELABELED_TRIANGLE, strategy="linear"),
        )
        assert status == 200
        assert [event["event"] for event in second] == ["accepted", "result"]
        assert second[0]["cache"] == "hit"
        assert second[0]["canonical_key"] == first[0]["canonical_key"]
        second_result = second[-1]
        assert second_result["cached"] is True
        assert second_result["solver_probes"] == 0
        assert second_result["termination"] == TERMINATION_CERTIFIED
        assert second_result["num_stages"] == first_result["num_stages"]
        assert second_result["lower_bound"] == first_result["lower_bound"]

        _status, stats = await get_json(running.host, running.port, "/v1/stats")
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        # The cache hit consumed no pool work: exactly one task ran.
        assert stats["pool"]["tasks_completed"] == 1

    _run(scenario, jobs=1, default_time_limit=60.0)


def test_concurrent_isomorphic_burst_all_succeed():
    async def scenario(running):
        docs = [
            _doc("triangle"),
            _doc("triangle", gates=RELABELED_TRIANGLE),
            _doc("triangle", gates=[[2, 0], [0, 1], [1, 2]]),
            _doc("single-gate"),
        ]
        outcomes = await asyncio.gather(
            *(
                stream_schedule(running.host, running.port, doc)
                for doc in docs
            )
        )
        for status, events in outcomes:
            assert status == 200
            result = events[-1]
            assert result["event"] == "result"
            assert result["termination"] == TERMINATION_CERTIFIED
        _status, stats = await get_json(running.host, running.port, "/v1/stats")
        assert stats["counters"]["requests_total"] == 4
        assert stats["counters"]["rejected_queue_full"] == 0

    _run(scenario, jobs=2, queue_limit=8, default_time_limit=60.0)


# --------------------------------------------------------------------------- #
# Backpressure: the bounded queue answers 503, it does not buffer
# --------------------------------------------------------------------------- #
def test_queue_full_is_rejected_with_503():
    async def scenario(running):
        # Occupy the single worker with a sleeping request, fill the
        # one-slot queue with a second, then a third must bounce with 503
        # before any work starts.
        blocker = asyncio.ensure_future(
            stream_schedule(
                running.host,
                running.port,
                _doc("single-gate", selftest={"op": "sleep", "seconds": 1.5}),
            )
        )
        await _wait_for(lambda s: s["pool"]["busy"] == 1, running)
        queued = asyncio.ensure_future(
            stream_schedule(
                running.host,
                running.port,
                _doc("single-gate", selftest={"op": "sleep", "seconds": 0.1}),
            )
        )
        await _wait_for(lambda s: s["queue"]["depth"] == 1, running)

        status, body = await stream_schedule(
            running.host, running.port, _doc("triangle")
        )
        assert status == 503
        assert body[0]["error"] == "request queue is full"
        assert body[0]["queue_limit"] == 1

        # The rejected request harmed nobody: both accepted requests
        # complete normally once the worker frees up.
        for task in (blocker, queued):
            task_status, events = await task
            assert task_status == 200
            assert events[-1]["termination"] == TERMINATION_CERTIFIED
        _status, stats = await get_json(running.host, running.port, "/v1/stats")
        assert stats["counters"]["rejected_queue_full"] == 1

    _run(
        scenario,
        jobs=1,
        queue_limit=1,
        allow_selftest=True,
        default_time_limit=60.0,
    )


# --------------------------------------------------------------------------- #
# Crash containment: one request degrades, the pool survives
# --------------------------------------------------------------------------- #
def test_worker_crash_degrades_request_but_not_the_pool():
    async def scenario(running):
        status, events = await stream_schedule(
            running.host,
            running.port,
            _doc("single-gate", selftest={"op": "crash", "exit_code": 41}),
        )
        assert status == 200
        result = events[-1]
        assert result["event"] == "result"
        assert result["termination"] == "backend-error"
        assert result["found"] is False
        assert "crashed" in result["error"]
        await _assert_loop_idle()

        # The pool replaced the dead worker underneath: the next request
        # on the same service certifies normally.
        status, events = await stream_schedule(
            running.host, running.port, _doc("triangle")
        )
        assert status == 200
        assert events[-1]["termination"] == TERMINATION_CERTIFIED

        _status, health = await get_json(
            running.host, running.port, "/v1/healthz"
        )
        assert health["status"] == "ok"
        assert health["pool"]["worker_restarts"] == 1
        assert health["counters"]["worker_crashes"] == 1
        assert all(worker["alive"] for worker in health["workers"])

    _run(scenario, jobs=1, allow_selftest=True, default_time_limit=60.0)


# --------------------------------------------------------------------------- #
# Event-driven dispatch: immediate hand-off, harness timeout, shutdown
# --------------------------------------------------------------------------- #
def test_idle_pool_takes_a_submitted_job_on_the_next_loop_turn():
    async def scenario():
        service = SchedulingService(jobs=1)
        try:
            job = service.try_submit(
                service.next_request_id(), {"problem": _doc("triangle")}
            )
            # No polling interval sits between a miss and an idle worker:
            # one loop turn later the job is running, not waiting.
            await asyncio.sleep(0)
            stats = service.stats()
            assert stats["queue"]["depth"] == 0
            assert stats["pool"]["busy"] == 1
            outcome = await asyncio.wait_for(job.outcomes.get(), timeout=60.0)
            assert outcome.status == TASK_OK
            assert outcome.value["termination"] == TERMINATION_CERTIFIED
        finally:
            service.close()

    asyncio.run(scenario())


def test_harness_timeout_ends_an_overrunning_request():
    async def scenario(running):
        # An overrunning worker makes no descriptor readable: only the
        # service's timer can end this request.
        status, events = await asyncio.wait_for(
            stream_schedule(
                running.host,
                running.port,
                _doc("single-gate", selftest={"op": "sleep", "seconds": 30}),
            ),
            timeout=5.0,
        )
        assert status == 200
        result = events[-1]
        assert result["event"] == "result"
        assert result["termination"] == "deadline"
        assert result["found"] is False

        _status, health = await get_json(
            running.host, running.port, "/v1/healthz"
        )
        assert health["pool"]["worker_restarts"] == 1
        await _assert_loop_idle()
        # The replacement worker certifies the next request.
        status, events = await stream_schedule(
            running.host, running.port, _doc("triangle")
        )
        assert status == 200
        assert events[-1]["termination"] == TERMINATION_CERTIFIED

    # The triangle solve takes about 0.5 s on a 2-vCPU host, so the harness
    # timeout leaves it a wide margin while the sleeper still ends within 5 s.
    _run(scenario, jobs=1, hard_timeout=2.0, allow_selftest=True)


def test_close_ends_in_flight_and_queued_streams():
    async def scenario(running):
        sleeper = _doc("single-gate", selftest={"op": "sleep", "seconds": 30})
        in_flight = asyncio.ensure_future(
            stream_schedule(running.host, running.port, sleeper)
        )
        await _wait_for(lambda s: s["pool"]["busy"] == 1, running)
        queued = asyncio.ensure_future(
            stream_schedule(running.host, running.port, sleeper)
        )
        await _wait_for(lambda s: s["queue"]["depth"] == 1, running)

        running.service.close()
        for task in (in_flight, queued):
            status, events = await asyncio.wait_for(task, timeout=5.0)
            assert status == 200
            result = events[-1]
            assert result["event"] == "result"
            assert result["termination"] == "backend-error"
            assert result["error"] == "service shutting down"

        # A miss that reaches the closed service is answered, not parked.
        status, events = await asyncio.wait_for(
            stream_schedule(running.host, running.port, _doc("triangle")),
            timeout=5.0,
        )
        assert status == 200
        assert events[-1]["error"] == "service shutting down"

    _run(scenario, jobs=1, queue_limit=2, allow_selftest=True)


def test_selftest_ops_are_rejected_unless_enabled():
    async def scenario(running):
        status, body = await stream_schedule(
            running.host,
            running.port,
            _doc("single-gate", selftest={"op": "crash"}),
        )
        assert status == 400
        assert "selftest" in body[0]["error"]

    _run(scenario, jobs=1)


# --------------------------------------------------------------------------- #
# Validation and routing
# --------------------------------------------------------------------------- #
def test_invalid_documents_get_400():
    async def scenario(running):
        bad_docs = [
            {},  # missing everything
            {"num_qubits": 2},  # missing gates
            {"num_qubits": 2, "gates": [[0, 0]]},  # self-gate
            {"num_qubits": 2, "gates": [[0, 5]]},  # out of range
            {"num_qubits": 3, "gates": [[0, 1]], "layout": 7},  # bad layout
            {"num_qubits": 3, "gates": [[0, 1]], "layout": "full:nope"},
            # Wrong types are rejected, not coerced; so are unknown layout keys.
            {"num_qubits": 3, "gates": [[0, 1]], "shielding": "no"},
            {"num_qubits": 3, "gates": [[0, 1]], "shielding": 1},
            {"num_qubits": 2.7, "gates": [[0, 1]]},
            {"num_qubits": True, "gates": []},
            {"num_qubits": 3, "gates": [[0, 1.5]]},
            {"num_qubits": 3, "gates": [[0, True]]},
            {"num_qubits": 3, "gates": [[0, 1]], "layout": {"x_max": 2.5}},
            {"num_qubits": 3, "gates": [[0, 1]], "layout": {"c_max": True}},
            {"num_qubits": 3, "gates": [[0, 1]], "layout": {"parameters": 1}},
            {"num_qubits": 3, "gates": [[0, 1]], "layout": {"kind": 5}},
        ]
        for doc in bad_docs:
            status, body = await stream_schedule(
                running.host, running.port, doc
            )
            assert status == 400, doc
            assert "error" in body[0]
        _status, stats = await get_json(running.host, running.port, "/v1/stats")
        assert stats["counters"]["invalid_requests"] == len(bad_docs)
        assert stats["counters"]["requests_total"] == 0

    _run(scenario, jobs=1)


@pytest.mark.parametrize(
    "solver_fields",
    [
        {"strategy": "nope"},
        {"strategy": "warmstart"},
        {"sat_backend": "nope"},
        {"time_limit": "abc"},
        {"deadline": "abc"},
        {"deadline": -5},
        {"sat_backend": "chaos:nope"},
        {"sat_backend": 5},
        {"time_limit": float("inf")},
        {"deadline": True},
    ],
    ids=[
        "unknown-strategy",
        "deleted-strategy",
        "unknown-backend",
        "time-limit-string",
        "deadline-string",
        "negative-deadline",
        "unknown-chaos-inner-backend",
        "non-string-backend",
        "infinite-time-limit",
        "boolean-deadline",
    ],
)
def test_bad_solver_fields_get_400_before_queueing(solver_fields):
    """A request no worker could run is refused at admission: it takes no
    queue slot, no worker round trip and no cache lookup."""

    async def scenario(running):
        status, body = await stream_schedule(
            running.host, running.port, _doc("single-gate", **solver_fields)
        )
        assert status == 400
        assert "error" in body[0]
        _status, stats = await get_json(running.host, running.port, "/v1/stats")
        assert stats["counters"]["invalid_requests"] == 1
        assert stats["counters"]["requests_total"] == 0
        assert stats["counters"]["cache_misses"] == 0

    _run(scenario, jobs=1)


@pytest.mark.parametrize("backend", ["dimacs-subprocess", "chaos:dimacs-subprocess"])
def test_unavailable_backends_get_400_before_queueing(backend, monkeypatch):
    """A registered backend this host cannot run (here: the solver binary
    points nowhere) is refused at admission like an unknown one, instead of
    taking a queue slot and ending ``backend-error``."""
    monkeypatch.setenv("REPRO_SAT_BINARY", "/nonexistent")

    async def scenario(running):
        status, body = await stream_schedule(
            running.host, running.port, _doc("single-gate", sat_backend=backend)
        )
        assert status == 400
        assert "unavailable" in body[0]["error"]
        _status, stats = await get_json(running.host, running.port, "/v1/stats")
        assert stats["counters"]["invalid_requests"] == 1
        assert stats["counters"]["requests_total"] == 0

    _run(scenario, jobs=1)


def test_admission_accepts_every_runnable_solver_field():
    for fields in (
        {},
        {"strategy": None, "sat_backend": None, "deadline": None},
        {"strategy": "linear", "sat_backend": "chaos:flat"},
        {"strategy": "portfolio", "time_limit": 0, "deadline": 2.5},
    ):
        check_solver_fields(fields, "bisection")


def test_unknown_routes_and_methods():
    async def scenario(running):
        status, _body = await get_json(running.host, running.port, "/v1/nope")
        assert status == 404
        status, _body = await get_json(
            running.host, running.port, "/v1/schedule"
        )
        assert status == 405

    _run(scenario, jobs=1)


# --------------------------------------------------------------------------- #
# Persistence: the cache and the ledger survive a service restart
# --------------------------------------------------------------------------- #
def test_cache_and_ledger_survive_restart(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    ledger_path = tmp_path / "ledger.jsonl"

    async def first_life(running):
        status, events = await stream_schedule(
            running.host, running.port, _doc("triangle")
        )
        assert status == 200
        assert events[-1]["termination"] == TERMINATION_CERTIFIED
        return events[-1]["num_stages"]

    async def second_life(running):
        # The relabeled resubmission hits the *reloaded* cache: a new
        # process, zero solver probes, the same certified optimum.
        status, events = await stream_schedule(
            running.host, running.port, _doc("triangle", gates=RELABELED_TRIANGLE)
        )
        assert status == 200
        assert events[0]["cache"] == "hit"
        assert events[-1]["cached"] is True
        assert events[-1]["solver_probes"] == 0
        return events[-1]["num_stages"]

    first_stages = _run(
        first_life,
        jobs=1,
        cache_path=cache_path,
        ledger_path=ledger_path,
        default_time_limit=60.0,
    )
    second_stages = _run(
        second_life, jobs=1, cache_path=cache_path, ledger_path=ledger_path
    )
    assert first_stages == second_stages

    state = load_ledger(ledger_path)
    assert len(state.completed) == 2
    verdicts = sorted(
        (entry["cached"], entry["termination"])
        for entry in state.completed.values()
    )
    assert verdicts == [(False, "certified"), (True, "certified")]
    assert state.crashed_cells() == []
