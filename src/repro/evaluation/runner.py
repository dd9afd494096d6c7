"""Parallel batch evaluation engine.

The reproduction's evaluation surfaces (Table I cells, Figure 4 bars,
exploration sweeps, and the exact-SMT benchmark instances) are all
embarrassingly parallel: every instance is an independent (circuit,
architecture, backend) triple.  This module turns each surface into a list
of picklable :class:`BenchInstance` specs and fans them out across the
persistent warm worker pool of :mod:`repro.evaluation.executor`, collecting
per-instance wall-clock, status (``ok`` / ``timeout`` / ``error``) and a
JSON-serialisable payload.

Entry points
------------

* :func:`build_suite` — construct the instance list for a named suite
  (``smt``, ``table1``, ``exploration`` or ``all``).
* :func:`shard_suite` — deterministically partition a suite into one of
  ``n`` disjoint, exhaustive shards (``bench --shard i/n``) by a stable
  hash of the cell name, so CI matrix legs and fleets of machines can
  split one suite without coordination.
* :func:`run_batch` — execute instances serially (``jobs <= 1``) or on a
  fault-tolerant worker pool, with an optional per-instance timeout, an
  optional per-cell completion journal (crash/resume support, see
  :mod:`repro.evaluation.journal`), and optional JSON persistence.
* :func:`merge_documents` — union the JSON documents of a sharded run
  back into one, proving the shards were disjoint and exhaustive
  (``repro-nasp bench-merge``).
* ``repro-nasp bench`` — the CLI wrapper around all of it (see
  :mod:`repro.cli`).

Fault tolerance: parallel cells run on a fixed pool of *persistent*
worker processes (:class:`~repro.evaluation.executor.WorkerPool`) that
import the scheduling stack once and then execute cells back to back —
the old one-process-per-cell path re-paid the fork and backend warm-up
for every cell.  The fault contract is unchanged: a worker that
*crashes* (killed, OOM-ed, ``os._exit``) is detected via its exit code,
a replacement worker is spawned, and the cell is retried up to
``1 + max_retries`` attempts before being recorded as ``status:
"failed"`` — a poisoned cell can neither wedge the suite nor take the
pool down with a ``BrokenProcessPool``.  Teardown (normal, timeout,
``KeyboardInterrupt``) terminates **and joins** every live worker so no
child outlives the batch.

The timeout is enforced on two levels: every spec kind receives it as a
cooperative :class:`~repro.core.budget.Deadline` (SMT cells degrade
gracefully and report ``termination: "deadline"`` with their best-known
witness; table1/exploration cells raise
:class:`~repro.core.budget.DeadlineExceeded` between sub-instances and are
recorded as ``timeout`` — in serial and parallel mode alike), and in
parallel mode the harness additionally terminates any worker whose
*execution* exceeds the budget — the cell is recorded as ``timeout``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from repro.core.budget import DeadlineExceeded
from repro.core.strategies import STRATEGIES
from repro.evaluation.executor import TASK_CRASHED, TASK_OK, WorkerPool
from repro.evaluation.journal import (
    BenchJournal,
    file_digest,
    load_journal,
    plan_resume,
    suite_digest,
)

#: The reduced-architecture instances exercised by the SMT suite; small
#: enough for the pure-Python SAT core, structurally identical to the paper's
#: full encoding.  Shared with ``benchmarks/test_bench_smt.py``.
SMT_INSTANCES: dict[str, tuple[int, list[tuple[int, int]]]] = {
    "single-gate": (2, [(0, 1)]),
    "chain-2": (3, [(0, 1), (1, 2)]),
    "disjoint-pairs": (4, [(0, 1), (2, 3)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "ring-4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
}

#: Layout axes of the SMT suite.  ``"none-shielded"`` is the storage-less
#: layout with ``shielding=True`` forced: idle qubits cannot leave the
#: all-covering entangling zone there, so only instances whose beams keep
#: every qubit busy are feasible — the suite pairs the axis with
#: :data:`AIRBORNE_SMOKE_INSTANCES` only.
SMT_LAYOUT_KINDS = ("none", "bottom", "none-shielded")

#: Instances in the airborne choreography's feasible class (load-regular
#: perfect-matching rounds); the only ones schedulable with shielding on a
#: storage-less layout.
AIRBORNE_SMOKE_INSTANCES = ("single-gate", "disjoint-pairs", "ring-4")

#: Search strategies fanned out by the SMT suite: every name of the
#: :data:`repro.core.strategies.STRATEGIES` table, in its order.
SMT_STRATEGIES = tuple(STRATEGIES)

REDUCED_LAYOUT_KWARGS = {"x_max": 2, "h_max": 1, "v_max": 1, "c_max": 2, "r_max": 2}


def smt_document(instance: str, layout: str) -> dict:
    """The request document of an :data:`SMT_INSTANCES` entry.

    The problem sits on the reduced *layout* kind at
    :data:`REDUCED_LAYOUT_KWARGS`; ``"none-shielded"`` is layout ``none``
    with ``shielding: true``.  Bench specs, the service load test and the
    CLI all describe a smoke instance through this one document
    (:func:`~repro.core.problem.problem_from_document` reads it).
    """
    num_qubits, gates = SMT_INSTANCES[instance]
    shielded = layout == "none-shielded"
    document = {
        "num_qubits": num_qubits,
        "gates": [list(gate) for gate in gates],
        "layout": {"kind": "none" if shielded else layout, **REDUCED_LAYOUT_KWARGS},
    }
    if shielded:
        document["shielding"] = True
    return document


@dataclass
class BenchInstance:
    """One unit of benchmark work: a name plus a picklable spec dict."""

    name: str
    suite: str
    spec: dict


@dataclass
class BenchResult:
    """Outcome of one :class:`BenchInstance`.

    ``status`` is one of ``"ok"`` (payload valid), ``"error"`` (the spec
    raised — deterministic, not retried), ``"timeout"`` (harness budget
    exceeded; re-queued by ``--resume``), or ``"failed"`` (the worker
    process crashed on every one of its ``1 + max_retries`` attempts).
    ``attempts`` counts the execution attempts this outcome consumed
    (> 1 only when crash retries or a resume were involved).
    """

    name: str
    suite: str
    status: str  # "ok" | "timeout" | "error" | "failed"
    seconds: float
    payload: dict = field(default_factory=dict)
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# --------------------------------------------------------------------------- #
# Suite construction
# --------------------------------------------------------------------------- #
def smt_suite(
    strategies: Sequence[str] = SMT_STRATEGIES,
    instances: Sequence[str] | None = None,
    layout_kinds: Sequence[str] = SMT_LAYOUT_KINDS,
    time_limit: Optional[float] = 120.0,
    backends: Sequence[Optional[str]] = (None,),
) -> list[BenchInstance]:
    """Exact-SMT scheduling of the reduced instances, one axis per strategy.

    Every (backend, strategy, layout, instance) tuple becomes one spec, so a
    persisted batch captures the full search trajectory — bounds and
    horizons attempted — per strategy, side by side.  *backends* fans the
    suite across SAT backends (registry names; ``None`` is the default
    in-process core, whose instance names keep the historical
    ``smt/{strategy}/{layout}/{instance}`` format — explicit backends are
    prefixed as ``smt/{backend}/...``).
    """
    names = list(instances) if instances is not None else list(SMT_INSTANCES)
    suite: list[BenchInstance] = []
    for backend in backends:
        for strategy in strategies:
            if strategy not in SMT_STRATEGIES:
                raise ValueError(f"unknown SMT scheduler strategy {strategy!r}")
            for kind in layout_kinds:
                for name in names:
                    # The shielded storage-less pseudo-layout pairs only with
                    # the instances that stay feasible when no idle qubit may
                    # enter the entangling zone.
                    if kind == "none-shielded" and name not in AIRBORNE_SMOKE_INSTANCES:
                        continue
                    prefix = "smt" if backend is None else f"smt/{backend}"
                    suite.append(
                        BenchInstance(
                            name=f"{prefix}/{strategy}/{kind}/{name}",
                            suite="smt",
                            spec={
                                "kind": "smt",
                                "strategy": strategy,
                                "sat_backend": backend,
                                "layout": kind,
                                "instance": name,
                                "problem": smt_document(name, kind),
                                "time_limit": time_limit,
                            },
                        )
                    )
    return suite


def table1_suite(codes: Sequence[str] | None = None) -> list[BenchInstance]:
    """One instance per Table I cell (code x layout, structured backend).

    Figure 4 is derived from the same rows
    (:func:`repro.evaluation.figure4.figure4_from_rows`), so this suite
    covers both evaluation surfaces.
    """
    from repro.arch import evaluation_layouts
    from repro.qec import available_codes

    code_names = list(codes) if codes is not None else available_codes()
    layout_names = list(evaluation_layouts())
    return [
        BenchInstance(
            name=f"table1/{code}/{layout}",
            suite="table1",
            spec={"kind": "table1", "code": code, "layout": layout},
        )
        for code in code_names
        for layout in layout_names
    ]


def exploration_suite(codes: Sequence[str] | None = None) -> list[BenchInstance]:
    """One design-space sweep per code."""
    from repro.qec import available_codes

    code_names = list(codes) if codes is not None else available_codes()
    return [
        BenchInstance(
            name=f"exploration/{code}",
            suite="exploration",
            spec={"kind": "exploration", "code": code},
        )
        for code in code_names
    ]


def build_suite(
    suite: str,
    codes: Sequence[str] | None = None,
    strategies: Sequence[str] | None = None,
    time_limit: Optional[float] = 120.0,
    backends: Sequence[Optional[str]] | None = None,
) -> list[BenchInstance]:
    """Construct the instance list for a named suite."""
    smt_strategies = tuple(strategies) if strategies else SMT_STRATEGIES
    smt_backends = tuple(backends) if backends else (None,)
    if suite == "smt":
        return smt_suite(
            strategies=smt_strategies, time_limit=time_limit, backends=smt_backends
        )
    if suite == "table1":
        return table1_suite(codes=codes)
    if suite == "exploration":
        return exploration_suite(codes=codes)
    if suite == "all":
        return (
            smt_suite(
                strategies=smt_strategies,
                time_limit=time_limit,
                backends=smt_backends,
            )
            + table1_suite(codes=codes)
            + exploration_suite(codes=codes)
        )
    raise ValueError(f"unknown suite {suite!r}")


# --------------------------------------------------------------------------- #
# Deterministic sharding
# --------------------------------------------------------------------------- #
def cell_shard(name: str, count: int) -> int:
    """Stable shard index of a cell, derived from a SHA-256 of its name.

    Independent of Python's randomised ``hash()``, the process, and the
    machine, so every leg of a fleet computes the same partition without
    coordination and a re-run lands each cell on the same shard.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % count


def shard_suite(
    instances: Sequence[BenchInstance], index: int, count: int
) -> list[BenchInstance]:
    """The *index*-th of *count* disjoint shards of a fully-expanded suite.

    The n shards of one suite are pairwise disjoint and their union is the
    whole suite (every cell hashes to exactly one index), so n machines
    running ``bench --shard i/n`` produce documents that
    :func:`merge_documents` can union back into the unsharded result set.
    """
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} outside 0..{count - 1}")
    return [inst for inst in instances if cell_shard(inst.name, count) == index]


def shard_info(
    cell_names: Sequence[str], index: int = 0, count: int = 1
) -> dict:
    """The ``shard`` document field describing one run's slice.

    *cell_names* is the **full pre-shard** cell list: the digest and total
    identify the suite every shard belongs to, which is what lets
    :func:`merge_documents` prove a merged run is exhaustive.
    """
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} outside 0..{count - 1}")
    return {
        "index": index,
        "count": count,
        "suite_cells": len(cell_names),
        "suite_digest": suite_digest(cell_names),
    }


def dedupe_instances(
    instances: Sequence[BenchInstance],
) -> tuple[list[BenchInstance], dict[str, str]]:
    """Drop SMT cells that are isomorphic duplicates of an earlier cell.

    Two cells are duplicates when their scheduling problems share a
    canonical key (:func:`repro.core.canonical.canonical_key` — invariant
    under qubit relabeling and gate reordering) *and* their solver
    configuration (strategy, backend, time limit) is
    identical: solving both can only reproduce the same certified answer.
    Returns ``(kept, dropped)`` where *dropped* maps each dropped cell
    name to the kept cell it duplicates.  Non-SMT cells are never dropped
    (their specs name circuits, not gate lists, and are already unique).
    """
    from repro.core.canonical import canonical_key
    from repro.core.problem import problem_from_document

    kept: list[BenchInstance] = []
    dropped: dict[str, str] = {}
    seen: dict[tuple, str] = {}
    for instance in instances:
        spec = instance.spec
        if spec.get("kind") != "smt":
            kept.append(instance)
            continue
        key = (
            canonical_key(problem_from_document(spec["problem"])),
            spec["strategy"],
            spec.get("sat_backend"),
            spec.get("time_limit"),
        )
        if key in seen:
            dropped[instance.name] = seen[key]
        else:
            seen[key] = instance.name
            kept.append(instance)
    return kept, dropped


# --------------------------------------------------------------------------- #
# Workers (module-level so they pickle for the worker pool)
# --------------------------------------------------------------------------- #
def execute_spec(spec: dict) -> dict:
    """Run one instance spec and return its JSON-serialisable payload."""
    kind = spec["kind"]
    if kind == "smt":
        return solve_job(spec)
    if kind == "table1":
        return _execute_table1(spec)
    if kind == "exploration":
        return _execute_exploration(spec)
    if kind == "selftest":
        return _execute_selftest(spec)
    raise ValueError(f"unknown spec kind {kind!r}")


def _execute_selftest(spec: dict) -> dict:
    """Fault-injection specs for exercising the fleet machinery itself.

    Not part of any named suite: the fleet tests build these instances
    directly to prove crash retry, timeout preemption, journal resume, and
    worker teardown against *real* worker processes instead of mocks.

    Ops: ``ok`` returns immediately; ``pid`` returns the worker's PID (the
    worker-reuse regression test proves the warm pool executes many cells
    on few processes); ``error`` raises; ``sleep`` blocks for ``seconds``
    (optionally writing its PID to ``pid_file`` first, so a test can
    verify the worker was really killed); ``crash`` dies via ``os._exit``
    without a result — indistinguishable from an OOM kill; ``crash-once``
    crashes only while the ``marker`` file does not exist (it creates it
    first), so exactly the first attempt dies and a retry succeeds.
    """
    op = spec.get("op")
    if op == "ok":
        return {"op": "ok", "value": spec.get("value")}
    if op == "pid":
        return {"op": "pid", "pid": os.getpid(), "value": spec.get("value")}
    if op == "error":
        raise RuntimeError(spec.get("message", "injected error"))
    if op == "sleep":
        pid_file = spec.get("pid_file")
        if pid_file:
            with open(pid_file, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
        time.sleep(float(spec["seconds"]))
        return {"op": "sleep", "value": spec.get("value")}
    if op == "crash":
        os._exit(int(spec.get("exit_code", 66)))
    if op == "crash-once":
        marker = spec["marker"]
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8"):
                pass
            os._exit(int(spec.get("exit_code", 66)))
        return {"op": "crash-once", "survived": True}
    raise ValueError(f"unknown selftest op {op!r}")


def solve_job(spec: dict) -> dict:
    """Solve one request document exactly: the one SMT job.

    Bench ``smt`` cells (through :func:`execute_spec`) and service misses
    (:mod:`repro.service.server`) both run it, so they answer with the same
    payload.  *spec* carries the request document under ``"problem"``
    (:func:`~repro.core.problem.problem_from_document`), the ``strategy``
    name, and optional ``sat_backend``, per-probe ``time_limit``,
    whole-search ``deadline`` (seconds, started here, or an already-ticking
    :class:`~repro.core.budget.Deadline`) and ``chaos_spec`` (a per-job
    fault plan for ``chaos:`` backends).  A bench cell's ``layout`` and
    ``instance`` labels are echoed into the payload.  The schedule is
    validated once, inside :meth:`~repro.core.scheduler.SMTScheduler.schedule`.
    """
    from repro.core.problem import problem_from_document
    from repro.core.scheduler import SMTScheduler
    from repro.sat.chaos import CHAOS_SPEC_ENV

    strategy = spec["strategy"]
    problem = problem_from_document(spec["problem"])
    chaos_spec = spec.get("chaos_spec")
    saved_chaos = os.environ.get(CHAOS_SPEC_ENV)
    if chaos_spec is not None:
        os.environ[CHAOS_SPEC_ENV] = str(chaos_spec)
    try:
        scheduler = SMTScheduler(
            time_limit_per_instance=spec.get("time_limit"),
            strategy=strategy,
            sat_backend=spec.get("sat_backend"),
        )
        report = scheduler.schedule(problem, deadline=spec.get("deadline"))
    finally:
        if chaos_spec is not None:
            # Workers are persistent: a per-job chaos plan must not leak
            # into the next job's solve.
            if saved_chaos is None:
                os.environ.pop(CHAOS_SPEC_ENV, None)
            else:
                os.environ[CHAOS_SPEC_ENV] = saved_chaos
    payload = {
        "strategy": strategy,
        # The resolved backend registry name.
        "sat_backend": report.sat_backend,
        **{label: spec[label] for label in ("layout", "instance") if label in spec},
        "found": report.found,
        "optimal": report.optimal,
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        # Certificate provenance of both bounds.
        "lower_bound_source": report.lower_bound_source,
        "upper_bound_source": report.upper_bound_source,
        "stages_tried": report.stages_tried,
        "num_horizons": report.num_horizons,
        "solver_seconds": report.solver_seconds,
        # How the search ended (the graceful-degradation verdict) and how
        # many transient backend failures were retried.
        "termination": report.termination,
        "backend_retries": int(report.statistics.get("backend_retries", 0)),
    }
    # Hot-loop throughput of the deciding SAT backend (rates over every
    # probe of the search), when the backend keeps them — the trend tool
    # tracks these across commits.
    for key in ("sat_propagations_per_second", "sat_conflicts_per_second"):
        if key in report.statistics:
            payload[key] = report.statistics[key]
    if report.found:
        payload.update(
            num_stages=report.schedule.num_stages,
            num_rydberg_stages=report.schedule.num_rydberg_stages,
            num_transfer_stages=report.schedule.num_transfer_stages,
            validated=True,
        )
    return payload


def _execute_table1(spec: dict) -> dict:
    from repro.arch import evaluation_layouts
    from repro.evaluation.table1 import run_table1_row

    layouts = evaluation_layouts()
    layout_name = spec["layout"]
    if layout_name not in layouts:
        raise ValueError(f"unknown layout {layout_name!r}")
    row = run_table1_row(
        spec["code"],
        layouts={layout_name: layouts[layout_name]},
        deadline=_spec_deadline(spec),
    )
    cell = row.layouts[layout_name]
    return {
        "code": spec["code"],
        "layout": layout_name,
        "num_qubits": row.num_qubits,
        "num_cz_gates": row.num_cz_gates,
        "scheduling_seconds": cell.scheduling_seconds,
        "num_rydberg_stages": cell.num_rydberg_stages,
        "num_transfer_stages": cell.num_transfer_stages,
        "num_transfer_operations": cell.num_transfer_operations,
        "execution_time_ms": cell.execution_time_ms,
        "asp": cell.asp,
    }


def _execute_exploration(spec: dict) -> dict:
    from repro.evaluation.exploration import run_architecture_exploration

    results = run_architecture_exploration(
        spec["code"], deadline=_spec_deadline(spec)
    )
    return {
        "code": spec["code"],
        "design_points": [asdict(result) for result in results],
    }


def _spec_deadline(spec: dict):
    """Start the cooperative :class:`Deadline` encoded in a spec (or None).

    The budget starts ticking when the cell *executes*, not when the spec
    was built — queueing time behind a busy pool must not count against
    the cell.
    """
    from repro.core.budget import Deadline

    seconds = spec.get("deadline")
    return None if seconds is None else Deadline.after(seconds)


# --------------------------------------------------------------------------- #
# Batch execution
# --------------------------------------------------------------------------- #
def run_batch(
    instances: Sequence[BenchInstance],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    output_path: str | os.PathLike | None = None,
    journal_path: str | os.PathLike | None = None,
    resume: bool = False,
    max_retries: int = 2,
    shard: Optional[dict] = None,
) -> list[BenchResult]:
    """Execute *instances*, optionally in parallel, and collect results.

    ``jobs=None`` or ``jobs <= 1`` runs serially in this process (no pickling
    round-trips, easiest to debug); larger values fan out across a
    persistent warm pool of that many worker processes
    (:class:`~repro.evaluation.executor.WorkerPool`).  *timeout* bounds
    each instance's execution time: every spec enforces it cooperatively
    through a :class:`~repro.core.budget.Deadline` (SMT cells degrade
    gracefully to ``termination: "deadline"``; table1/exploration cells
    are preempted between sub-instances with status ``"timeout"``), and
    in parallel mode the harness additionally terminates any worker that
    overruns (status ``"timeout"``).  When
    *output_path* is given the results are additionally persisted as a
    :func:`save_results` document.

    *journal_path* appends a per-cell completion journal
    (:mod:`repro.evaluation.journal`); with ``resume=True`` the journal is
    loaded first and cells it proves complete are carried over instead of
    re-run, while crashed and timed-out cells are re-queued.  A cell whose
    worker crashes is retried up to ``1 + max_retries`` total attempts
    (counting attempts recorded in a resumed journal) and then recorded as
    ``status: "failed"``.  *shard* is the shard descriptor from
    :func:`shard_info`; when omitted the run is recorded as the single
    shard of its own cell set.
    """
    names = [instance.name for instance in instances]
    if shard is None:
        shard = shard_info(names)
    max_attempts = 1 + max(0, max_retries)
    carried: dict[int, BenchResult] = {}
    pending: list[tuple[int, BenchInstance, int]] = [
        (index, instance, 1) for index, instance in enumerate(instances)
    ]
    journal: Optional[BenchJournal] = None
    if resume:
        if journal_path is None:
            raise ValueError("resume=True requires a journal_path")
        plan = plan_resume(names, load_journal(journal_path), max_retries=max_retries)
        carried = {
            index: _result_from_entry(entry) for index, entry in plan.carried.items()
        }
        pending = [
            (index, instances[index], attempt) for index, attempt in plan.pending
        ]
        journal = BenchJournal(journal_path)
    elif journal_path is not None:
        journal = BenchJournal(journal_path)
        journal.write_header(names, shard=shard)
    try:
        if jobs is None or jobs <= 1:
            executed = _run_serial(pending, timeout, journal)
        else:
            executed = _run_parallel(pending, jobs, timeout, journal, max_attempts)
    finally:
        if journal is not None:
            journal.close()
    merged = {**carried, **executed}
    results = [merged[index] for index in sorted(merged)]
    if output_path is not None:
        save_results(results, output_path, shard=shard, journal_path=journal_path)
    return results


def _result_from_entry(entry: dict) -> BenchResult:
    """Rehydrate a :class:`BenchResult` from a journal/JSON entry."""
    known = {f for f in BenchResult.__dataclass_fields__}
    return BenchResult(**{k: v for k, v in entry.items() if k in known})


def _journal_done(
    journal: Optional[BenchJournal], attempt: int, result: BenchResult
) -> None:
    if journal is not None:
        journal.record_done(result.name, attempt, asdict(result))


def _run_serial(
    pending: Sequence[tuple[int, BenchInstance, int]],
    timeout: Optional[float],
    journal: Optional[BenchJournal],
) -> dict[int, BenchResult]:
    results: dict[int, BenchResult] = {}
    for index, instance, attempt in pending:
        if journal is not None:
            journal.record_start(instance.name, attempt)
        spec = _with_timeout(instance.spec, timeout)
        start = time.monotonic()
        try:
            payload = execute_spec(spec)
        except DeadlineExceeded as exc:
            # A cooperative preemption (table1/exploration cells check the
            # budget between sub-instances) is a timeout, not an error —
            # ``--resume`` re-queues it just like a harness-killed worker.
            result = BenchResult(
                name=instance.name,
                suite=instance.suite,
                status="timeout",
                seconds=time.monotonic() - start,
                error=str(exc),
                attempts=attempt,
            )
        except Exception as exc:  # noqa: BLE001 - reported per instance
            result = BenchResult(
                name=instance.name,
                suite=instance.suite,
                status="error",
                seconds=time.monotonic() - start,
                error=f"{type(exc).__name__}: {exc}",
                attempts=attempt,
            )
        else:
            result = BenchResult(
                name=instance.name,
                suite=instance.suite,
                status="ok",
                seconds=time.monotonic() - start,
                payload=payload,
                attempts=attempt,
            )
        results[index] = result
        _journal_done(journal, attempt, result)
    return results


def warm_worker() -> None:
    """Warm-up hook run once per pool worker before its first job.

    Imports the scheduling stack (scheduler, structured baseline, SMT and
    SAT layers) so bench cells and service misses pay solver time only —
    the pool amortises this across every job the worker executes.
    """
    import repro.core.scheduler  # noqa: F401
    import repro.core.structured  # noqa: F401
    import repro.sat.backend  # noqa: F401
    import repro.smt.solver  # noqa: F401


def _run_parallel(
    pending: Sequence[tuple[int, BenchInstance, int]],
    jobs: int,
    timeout: Optional[float],
    journal: Optional[BenchJournal],
    max_attempts: int,
) -> dict[int, BenchResult]:
    """Fan cells out across a persistent warm worker pool.

    The pool (:class:`~repro.evaluation.executor.WorkerPool`) keeps its
    workers alive across cells, so the interpreter fork and the backend
    imports are paid once per worker instead of once per cell.  The fault
    contract of the old one-process-per-cell path is preserved: a worker
    crash is an isolated, attributable event — the dead worker's cell is
    re-queued (up to *max_attempts* total attempts, then ``status:
    "failed"``), a replacement worker is spawned, and every other cell
    keeps running.  Submission is throttled to idle workers so the
    journal's ``start`` event stays adjacent to actual execution — a
    resume must only re-queue cells that truly began.  Teardown
    terminates and joins every worker (``KeyboardInterrupt`` included),
    so no child outlives the batch.
    """
    queue: deque[tuple[int, BenchInstance, int]] = deque(pending)
    results: dict[int, BenchResult] = {}
    inflight: dict[int, tuple[int, BenchInstance, int]] = {}
    with WorkerPool(
        max(1, min(jobs, len(pending) or 1)), warmup=warm_worker, name="bench"
    ) as pool:
        while queue or inflight:
            while queue and pool.idle_count() > 0:
                index, instance, attempt = queue.popleft()
                if journal is not None:
                    journal.record_start(instance.name, attempt)
                task_id = pool.submit(
                    execute_spec,
                    _with_timeout(instance.spec, timeout),
                    timeout=timeout,
                )
                inflight[task_id] = (index, instance, attempt)
            for event in pool.poll(timeout=0.2):
                index, instance, attempt = inflight.pop(event.task_id)
                if event.status == TASK_CRASHED and attempt < max_attempts:
                    # Crash: re-queue the cell for a fresh attempt.  No
                    # result is recorded yet — the journal will see a new
                    # `start` event when the retry launches.
                    queue.append((index, instance, attempt + 1))
                    continue
                if event.status == TASK_CRASHED:
                    result = BenchResult(
                        name=instance.name,
                        suite=instance.suite,
                        status="failed",
                        seconds=event.seconds,
                        error=(
                            f"worker crashed (exit code {event.exitcode}) on "
                            f"attempt {attempt}/{max_attempts}"
                        ),
                        attempts=attempt,
                    )
                else:
                    result = BenchResult(
                        name=instance.name,
                        suite=instance.suite,
                        status=event.status,
                        seconds=event.seconds,
                        payload=event.value if event.status == TASK_OK else {},
                        error=event.error,
                        attempts=attempt,
                    )
                results[index] = result
                _journal_done(journal, attempt, result)
    return results


def _with_timeout(spec: dict, timeout: Optional[float]) -> dict:
    """Forward the harness timeout into the spec's cooperative budget.

    Every executable spec kind understands ``spec["deadline"]`` (a budget in
    seconds, started when the cell executes): SMT cells hand it to
    :meth:`~repro.core.scheduler.SMTScheduler.schedule`, which degrades
    gracefully on expiry (``termination: "deadline"``);
    table1/exploration cells check it between sub-instances and raise
    :class:`DeadlineExceeded`, recorded as ``status: "timeout"``.  SMT specs
    additionally clamp their per-probe solver ``time_limit``, preserving
    the pre-deadline anytime behaviour.
    """
    if timeout is None or spec.get("kind") == "selftest":
        return spec
    spec = dict(spec)
    existing = spec.get("deadline")
    spec["deadline"] = timeout if existing is None else min(existing, timeout)
    if spec.get("kind") == "smt":
        limit = spec.get("time_limit")
        spec["time_limit"] = timeout if limit is None else min(limit, timeout)
    return spec


# --------------------------------------------------------------------------- #
# Persistence and formatting
# --------------------------------------------------------------------------- #
#: Version of the one document :func:`save_results` writes, and the only
#: one the readers (:func:`merge_documents`, ``bench-trend``) accept.
DOCUMENT_VERSION = 8


def check_document_version(document: dict, reader: str, label: str = "a") -> None:
    """Raise ``ValueError`` unless *document* is schema :data:`DOCUMENT_VERSION`.

    *reader* names the consumer and *label* the document in the message.
    """
    version = document.get("version", 0)
    if version != DOCUMENT_VERSION:
        raise ValueError(
            f"{label} document is schema v{version}; {reader} requires "
            f"schema v{DOCUMENT_VERSION}"
        )


def save_results(
    results: Sequence[BenchResult],
    path: str | os.PathLike,
    shard: Optional[dict] = None,
    journal_path: str | os.PathLike | None = None,
) -> None:
    """Persist a batch run as a JSON document (version :data:`DOCUMENT_VERSION`).

    Besides the results (each with its ``attempts`` count and full
    payload), the document records the ``shard`` descriptor of the run
    (:func:`shard_info`) and the ``journal_digest`` — SHA-256 of the
    completion journal that produced the run, ``None`` when it ran
    unjournalled.
    """
    document = {
        "version": DOCUMENT_VERSION,
        "created_unix": time.time(),
        "num_instances": len(results),
        "num_ok": sum(1 for r in results if r.ok),
        "results": [asdict(result) for result in results],
        "shard": (
            shard
            if shard is not None
            else shard_info([result.name for result in results])
        ),
        "journal_digest": (
            file_digest(journal_path)
            if journal_path is not None and os.path.exists(journal_path)
            else None
        ),
    }
    save_document(document, path)


def load_document(path: str | os.PathLike) -> dict:
    """Load the raw JSON document persisted by :func:`save_results`."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_results(path: str | os.PathLike) -> list[BenchResult]:
    """Load a batch run persisted by :func:`save_results`."""
    return [
        _result_from_entry(entry) for entry in load_document(path)["results"]
    ]


def merge_documents(documents: Sequence[dict]) -> dict:
    """Union the shard documents of one suite into a single document.

    Validates the merge end-to-end: every document must be a
    :data:`DOCUMENT_VERSION` shard of the **same** suite (identical shard ``count``,
    ``suite_digest`` and ``suite_cells``), the shard indices must cover
    ``0..count-1`` exactly once, every cell must live on the shard its
    name hashes to, no cell may appear twice, and the union must
    reproduce the suite digest — i.e. be exhaustive, not merely large
    enough.  Raises ``ValueError`` with a precise message otherwise.
    """
    if not documents:
        raise ValueError("no documents to merge")
    for document in documents:
        check_document_version(document, "bench-merge")
        if document.get("shard") is None:
            raise ValueError("bench-merge requires shard documents")
    shards = [document["shard"] for document in documents]
    for key in ("count", "suite_digest", "suite_cells"):
        values = {shard[key] for shard in shards}
        if len(values) > 1:
            raise ValueError(
                f"documents disagree on shard {key}: {sorted(values)} — "
                "they do not belong to the same suite run"
            )
    count = shards[0]["count"]
    indices = sorted(shard["index"] for shard in shards)
    if indices != list(range(count)):
        raise ValueError(
            f"shard indices {indices} do not cover 0..{count - 1} exactly "
            "once — a shard leg is missing or duplicated"
        )
    entries: dict[str, dict] = {}
    for document, shard in zip(documents, shards):
        for entry in document["results"]:
            name = entry["name"]
            if name in entries:
                raise ValueError(f"cell {name!r} appears in more than one shard")
            owner = cell_shard(name, count)
            if owner != shard["index"]:
                raise ValueError(
                    f"cell {name!r} found on shard {shard['index']} but "
                    f"hashes to shard {owner} — the partition is corrupt"
                )
            entries[name] = entry
    expected_cells = shards[0]["suite_cells"]
    if len(entries) != expected_cells:
        raise ValueError(
            f"merged run covers {len(entries)} cells but the suite has "
            f"{expected_cells} — cells are missing"
        )
    merged_digest = suite_digest(list(entries))
    if merged_digest != shards[0]["suite_digest"]:
        raise ValueError(
            "merged cell set does not reproduce the suite digest — the "
            "shards cover the right number of cells but not the right ones"
        )
    merged_results = [entries[name] for name in sorted(entries)]
    return {
        "version": DOCUMENT_VERSION,
        "created_unix": max(doc.get("created_unix", 0.0) for doc in documents),
        "num_instances": len(merged_results),
        "num_ok": sum(1 for entry in merged_results if entry["status"] == "ok"),
        "shard": {
            "index": 0,
            "count": 1,
            "suite_cells": expected_cells,
            "suite_digest": merged_digest,
            "merged_from": count,
        },
        "journal_digest": None,
        "results": merged_results,
    }


def save_document(document: dict, path: str | os.PathLike) -> None:
    """Persist a raw document (e.g. a :func:`merge_documents` union)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_bounds_soundness(
    results: Sequence[BenchResult],
    expect_clique: Optional[dict[str, int]] = None,
) -> int:
    """Certify the analytic bounds of every SMT payload in a batch.

    Every ``ok`` SMT result that certified an optimum must satisfy
    ``lower_bound <= num_stages <= upper_bound`` (the upper-bound half only
    when a structured witness existed), and both bounds must carry their
    certificate provenance (``lower_bound_source`` /
    ``upper_bound_source``).  *expect_clique* maps instance names to the
    minimum lower bound their clique certificate guarantees (the CI gate
    pins the triangle to 3); the check fails when a matching payload
    reports less.  Returns the number of certified cells checked; raises
    ``ValueError`` on the first violation or when no cell qualifies.
    """
    checked = 0
    for result in results:
        payload = result.payload
        if result.suite != "smt" or not result.ok:
            continue
        if not (payload.get("found") and payload.get("optimal")):
            continue
        name = result.name
        stages = payload.get("num_stages")
        lower = payload.get("lower_bound")
        upper = payload.get("upper_bound")
        if lower is None or stages is None:
            raise ValueError(f"{name}: payload lacks lower_bound/num_stages")
        if lower > stages:
            raise ValueError(
                f"{name}: analytic lower bound {lower} exceeds the certified "
                f"optimum {stages} — a certificate is unsound"
            )
        if not payload.get("lower_bound_source"):
            raise ValueError(f"{name}: lower bound lacks its certificate source")
        if upper is not None:
            if stages > upper:
                raise ValueError(
                    f"{name}: certified optimum {stages} exceeds the "
                    f"structured upper bound {upper} — the witness is unsound"
                )
            if not payload.get("upper_bound_source"):
                raise ValueError(
                    f"{name}: upper bound lacks its witness source"
                )
        expected = (expect_clique or {}).get(payload.get("instance"))
        if expected is not None and lower < expected:
            raise ValueError(
                f"{name}: lower bound {lower} below the clique certificate "
                f"value {expected}"
            )
        checked += 1
    if not checked:
        raise ValueError("batch contains no certified SMT cells to check")
    return checked


def check_backend_agreement(
    first_results: Sequence[BenchResult],
    second_results: Sequence[BenchResult],
    expect_cells: Optional[int] = None,
) -> list[tuple[str, str, str]]:
    """Certify that two SMT batches agree on every shared optimum.

    The batches are keyed by (strategy, layout, instance) — the same suite
    run under two different SAT backends, one backend per batch.  Every
    shared cell must be found+optimal in both batches with identical stage
    counts, and each batch must record which backend produced it.  Returns
    the compared cells; raises ``ValueError`` on the first disagreement,
    when the batches share no cells, or when a batch mixes backends (a
    multi-backend batch would silently shadow all but one backend's result
    per cell — split it per backend before comparing).

    Only ``ok`` results enter the comparison, so an instance that errored
    or timed out under one backend simply drops out of the shared set —
    pass *expect_cells* to turn that silent coverage loss into a failure
    (the CI backend-matrix job pins it to the suite size).
    """

    def cells(results: Sequence[BenchResult]) -> dict[tuple[str, str, str], dict]:
        mapping = {}
        for result in results:
            payload = result.payload
            if result.suite != "smt" or not result.ok:
                continue
            key = (
                payload.get("strategy"),
                payload.get("layout"),
                payload.get("instance"),
            )
            previous = mapping.get(key)
            if previous is not None and previous.get("sat_backend") != payload.get(
                "sat_backend"
            ):
                raise ValueError(
                    f"{key}: batch mixes SAT backends "
                    f"({previous.get('sat_backend')!r} vs "
                    f"{payload.get('sat_backend')!r}); compare "
                    "single-backend batches"
                )
            mapping[key] = payload
        return mapping

    first = cells(first_results)
    second = cells(second_results)
    shared = sorted(set(first) & set(second))
    if not shared:
        raise ValueError("batches share no (strategy, layout, instance) cells")
    if expect_cells is not None and len(shared) != expect_cells:
        raise ValueError(
            f"expected {expect_cells} comparable cells but only {len(shared)} "
            "are ok in both batches — instances errored or timed out"
        )
    for cell in shared:
        a, b = first[cell], second[cell]
        backends = (a.get("sat_backend"), b.get("sat_backend"))
        if not all(backends):
            raise ValueError(f"{cell}: a batch does not record its SAT backend")
        for payload, backend in ((a, backends[0]), (b, backends[1])):
            if not (payload.get("found") and payload.get("optimal")):
                raise ValueError(
                    f"{cell}: backend {backend!r} failed to certify an optimum"
                )
        if a.get("num_stages") != b.get("num_stages"):
            raise ValueError(
                f"{cell}: backend {backends[0]!r} certified "
                f"{a.get('num_stages')} stages but backend {backends[1]!r} "
                f"certified {b.get('num_stages')}"
            )
    return shared


def format_batch(results: Sequence[BenchResult]) -> str:
    """Human-readable summary table of a batch run."""
    lines = [f"{'Instance':<42}{'Status':>9}{'Time[s]':>9}  Details"]
    for result in results:
        details = ""
        payload = result.payload
        if result.suite == "smt" and payload.get("found"):
            upper = payload.get("upper_bound")
            details = (
                f"stages={payload['num_stages']} "
                f"tried={payload['stages_tried']} "
                f"bounds=[{payload.get('lower_bound')},{'-' if upper is None else upper}]"
            )
        elif result.suite == "table1" and result.ok:
            details = (
                f"#R={payload['num_rydberg_stages']} #T={payload['num_transfer_stages']} "
                f"ASP={payload['asp']:.3f}"
            )
        elif result.suite == "exploration" and result.ok:
            details = f"{len(payload['design_points'])} design points"
        elif result.error:
            details = result.error
        lines.append(f"{result.name:<42}{result.status:>9}{result.seconds:>9.2f}  {details}")
    ok = sum(1 for r in results if r.ok)
    lines.append(f"{ok}/{len(results)} instances ok")
    return "\n".join(lines)
