"""Tests for the persistent warm worker pool (repro.evaluation.executor).

The pool is the shared substrate under the bench fleet and the scheduling
service, so its contract is pinned here directly: warm workers are reused
across tasks (no per-task fork), crashes are detected and the dead worker
replaced without losing the pool, overruns are terminated, and shutdown is
clean and idempotent.
"""

import time
from multiprocessing.connection import wait as connection_wait

import pytest

from repro.evaluation.executor import (
    TASK_CRASHED,
    TASK_ERROR,
    TASK_OK,
    TASK_TIMEOUT,
    WorkerPool,
)
from repro.evaluation.runner import (
    BenchInstance,
    execute_spec,
    run_batch,
)


def _selftest(op, **extra):
    return {"kind": "selftest", "op": op, **extra}


def _drain(pool, count, deadline=60.0):
    """Poll until *count* outcomes arrive (bounded by *deadline* seconds)."""
    outcomes = []
    limit = time.monotonic() + deadline
    while len(outcomes) < count:
        assert time.monotonic() < limit, (
            f"only {len(outcomes)}/{count} outcomes before the deadline"
        )
        outcomes.extend(pool.poll(timeout=0.2))
    return outcomes


# --------------------------------------------------------------------------- #
# Basic lifecycle
# --------------------------------------------------------------------------- #
def test_pool_runs_tasks_and_reports_ok():
    with WorkerPool(2) as pool:
        first = pool.submit(execute_spec, _selftest("ok", value=1))
        second = pool.submit(execute_spec, _selftest("ok", value=2))
        outcomes = {o.task_id: o for o in _drain(pool, 2)}
    assert outcomes[first].status == TASK_OK
    assert outcomes[first].value["value"] == 1
    assert outcomes[second].value["value"] == 2
    assert all(o.worker_pid for o in outcomes.values())


def test_pool_reuses_warm_workers_across_tasks():
    # The whole point of the warm pool: consecutive tasks land on the same
    # long-lived process instead of paying a fork + re-import per task.
    with WorkerPool(1) as pool:
        pids = set()
        for index in range(4):
            pool.submit(execute_spec, _selftest("pid", value=index))
            (outcome,) = _drain(pool, 1)
            assert outcome.status == TASK_OK
            pids.add(outcome.value["pid"])
    assert len(pids) == 1


def test_pool_error_is_contained():
    with WorkerPool(1) as pool:
        pool.submit(execute_spec, _selftest("error", message="boom"))
        (outcome,) = _drain(pool, 1)
        assert outcome.status == TASK_ERROR
        assert "boom" in outcome.error
        # The worker survives an exception and takes the next task.
        pool.submit(execute_spec, _selftest("ok", value=7))
        (outcome,) = _drain(pool, 1)
        assert outcome.status == TASK_OK
    assert pool.stats()["worker_restarts"] == 0


def test_pool_detects_crash_and_restarts_worker():
    with WorkerPool(1) as pool:
        pool.submit(execute_spec, _selftest("crash", exit_code=41))
        (outcome,) = _drain(pool, 1)
        assert outcome.status == TASK_CRASHED
        assert outcome.exitcode == 41
        assert "crashed" in outcome.error
        # The replacement worker is live and serves the next task.
        pool.submit(execute_spec, _selftest("ok", value=9))
        (outcome,) = _drain(pool, 1)
        assert outcome.status == TASK_OK
        assert pool.stats()["worker_restarts"] == 1
        assert all(entry["alive"] for entry in pool.health())


def test_pool_terminates_overrunning_task():
    with WorkerPool(1) as pool:
        pool.submit(execute_spec, _selftest("sleep", seconds=300), timeout=0.5)
        (outcome,) = _drain(pool, 1)
        assert outcome.status == TASK_TIMEOUT
        assert "harness timeout" in outcome.error
        # The sleeper was terminated, not awaited: a fresh worker answers.
        pool.submit(execute_spec, _selftest("ok"))
        (outcome,) = _drain(pool, 1)
        assert outcome.status == TASK_OK
        assert pool.stats()["worker_restarts"] == 1


def test_pool_backlog_drains_beyond_worker_count():
    with WorkerPool(2) as pool:
        ids = [
            pool.submit(execute_spec, _selftest("ok", value=index))
            for index in range(6)
        ]
        outcomes = {o.task_id: o for o in _drain(pool, 6)}
    assert sorted(outcomes) == sorted(ids)
    assert all(o.status == TASK_OK for o in outcomes.values())
    assert pool.stats()["tasks_completed"] == 6


def test_pool_health_and_stats_shape():
    with WorkerPool(2, name="probe") as pool:
        health = pool.health()
        assert len(health) == 2
        for entry in health:
            assert entry["alive"] is True
            assert entry["busy"] is False
            assert entry["pid"]
        stats = pool.stats()
        assert stats["jobs"] == 2
        assert stats["workers_spawned"] == 2
        assert stats["busy"] == 0
        assert pool.idle_count() == 2


def test_wait_handles_are_the_busy_workers_connection_and_sentinel():
    with WorkerPool(2) as pool:
        assert pool.wait_handles() == []
        task_id = pool.submit(execute_spec, _selftest("ok", value=3))
        (busy,) = [worker for worker in pool._workers if worker.task is not None]
        handles = pool.wait_handles()
        assert handles == [busy.conn, busy.process.sentinel]
        # The worker's report makes a handle ready; from then on a
        # zero-timeout poll collects the outcome without blocking.
        assert connection_wait(handles, timeout=60.0)
        started = time.monotonic()
        (outcome,) = pool.poll(timeout=0)
        assert time.monotonic() - started < 0.5
        assert outcome.task_id == task_id
        assert outcome.status == TASK_OK
        assert pool.wait_handles() == []


def test_pool_shutdown_is_idempotent():
    pool = WorkerPool(1)
    pool.submit(execute_spec, _selftest("ok"))
    _drain(pool, 1)
    pool.shutdown()
    pool.shutdown()  # second call must be a no-op
    assert all(not entry["alive"] for entry in pool.health())


# --------------------------------------------------------------------------- #
# Warm-pool amortisation through the bench runner (the satellite fix)
# --------------------------------------------------------------------------- #
def test_run_batch_reuses_workers_across_cells():
    # Regression for the per-cell cold-start: six cells on two workers
    # must report at most two distinct worker pids — the old runner forked
    # (and re-imported the solver stack in) a fresh process per cell.
    cells = [
        BenchInstance(
            name=f"selftest/pid-{index}",
            suite="selftest",
            spec=_selftest("pid", value=index),
        )
        for index in range(6)
    ]
    results = run_batch(cells, jobs=2)
    assert all(result.status == "ok" for result in results)
    pids = {result.payload["pid"] for result in results}
    assert 1 <= len(pids) <= 2


# --------------------------------------------------------------------------- #
# Submit after shutdown fails loudly, not silently
# --------------------------------------------------------------------------- #
def test_submit_after_shutdown_raises():
    pool = WorkerPool(1)
    pool.shutdown()
    with pytest.raises(ValueError, match="shut down"):
        pool.submit(execute_spec, _selftest("ok"))
