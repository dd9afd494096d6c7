"""Tests for the bench fleet: journal/resume, sharding, crash retry, teardown.

The crash/teardown tests inject faults through the runner's ``selftest``
spec kind, so real worker processes really die (``os._exit``), really
sleep, and really get terminated — no mocks.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.evaluation.journal import (
    BenchJournal,
    file_digest,
    load_journal,
    plan_resume,
    suite_digest,
)
from repro.evaluation.runner import (
    BenchInstance,
    build_suite,
    cell_shard,
    load_document,
    load_results,
    merge_documents,
    run_batch,
    shard_info,
    shard_suite,
    smt_suite,
)
from repro.cli import main


def _selftest(name, **spec):
    return BenchInstance(name=name, suite="selftest", spec={"kind": "selftest", **spec})


# --------------------------------------------------------------------------- #
# Deterministic sharding
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("count", [2, 3, 5])
def test_shards_are_disjoint_and_exhaustive_over_the_full_smoke_matrix(count):
    suite = build_suite("smt")  # the full strategy x layout x instance matrix
    shards = [shard_suite(suite, index, count) for index in range(count)]
    names = [inst.name for shard in shards for inst in shard]
    assert len(names) == len(set(names)), "shards overlap"
    assert sorted(names) == sorted(inst.name for inst in suite), "cells lost"
    # No shard may swallow the whole suite (the hash really spreads cells).
    assert all(len(shard) < len(suite) for shard in shards)


def test_shard_partition_is_stable_across_calls_and_pinned():
    suite = build_suite("smt")
    first = [inst.name for inst in shard_suite(suite, 0, 3)]
    second = [inst.name for inst in shard_suite(suite, 0, 3)]
    assert first == second
    # The partition function is part of the on-disk contract (committed
    # baselines and CI shard artifacts embed it); pin known values so an
    # accidental algorithm change fails loudly instead of silently
    # re-partitioning every fleet.
    assert [cell_shard("smt/linear/none/single-gate", n) for n in (2, 3, 5)] == [0, 0, 0]
    assert [cell_shard("smt/bisection/bottom/triangle", n) for n in (2, 3, 5)] == [0, 2, 3]


def test_shard_validation():
    suite = build_suite("smt")
    with pytest.raises(ValueError):
        shard_suite(suite, 2, 2)
    with pytest.raises(ValueError):
        shard_suite(suite, -1, 2)
    with pytest.raises(ValueError):
        cell_shard("x", 0)
    with pytest.raises(ValueError):
        shard_info(["a"], index=1, count=1)


# --------------------------------------------------------------------------- #
# Journal round trips
# --------------------------------------------------------------------------- #
def test_journal_round_trip(tmp_path):
    path = tmp_path / "run.jsonl"
    with BenchJournal(path) as journal:
        journal.write_header(["a", "b"], shard={"index": 0, "count": 1})
        journal.record_start("a", 1)
        journal.record_done(
            "a", 1, {"name": "a", "suite": "s", "status": "ok", "seconds": 0.1,
                     "payload": {"x": 1}, "error": None, "attempts": 1}
        )
        journal.record_start("b", 1)  # crashes: no done event
    state = load_journal(path)
    assert state.cells == ["a", "b"]
    assert state.suite_digest == suite_digest(["a", "b"])
    assert state.shard == {"index": 0, "count": 1}
    assert state.attempts == {"a": 1, "b": 1}
    assert set(state.completed) == {"a"}
    assert state.crashed_cells() == ["b"]


def test_journal_tolerates_a_torn_final_line(tmp_path):
    path = tmp_path / "run.jsonl"
    with BenchJournal(path) as journal:
        journal.write_header(["a"], shard=None)
        journal.record_start("a", 1)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "done", "cell": "a", "resu')  # SIGKILL mid-append
    state = load_journal(path)
    assert state.attempts == {"a": 1}
    assert state.completed == {}


def _entry(name, status, attempts=1, seconds=0.5):
    return {"name": name, "suite": "smt", "status": status, "seconds": seconds,
            "payload": {}, "error": None, "attempts": attempts}


def test_plan_resume_semantics(tmp_path):
    path = tmp_path / "run.jsonl"
    cells = ["ok-cell", "error-cell", "timeout-cell", "crashed-cell",
             "exhausted-cell", "fresh-cell"]
    with BenchJournal(path) as journal:
        journal.write_header(cells, shard=None)
        for name, status in (
            ("ok-cell", "ok"), ("error-cell", "error"), ("timeout-cell", "timeout"),
        ):
            journal.record_start(name, 1)
            journal.record_done(name, 1, _entry(name, status))
        journal.record_start("crashed-cell", 1)
        for attempt in (1, 2, 3):
            journal.record_start("exhausted-cell", attempt)
    plan = plan_resume(cells, load_journal(path), max_retries=2)
    # ok/error are terminal and carried; timeout/crashed re-queued with the
    # next attempt number; exhausted (3 starts, budget 1+2) force-failed;
    # fresh never ran.
    assert {cells[i] for i in plan.carried} == {"ok-cell", "error-cell",
                                                "exhausted-cell"}
    assert plan.carried[cells.index("exhausted-cell")]["status"] == "failed"
    assert "3 attempts" in plan.carried[cells.index("exhausted-cell")]["error"]
    assert sorted(plan.requeued) == ["crashed-cell", "timeout-cell"]
    assert plan.exhausted == ["exhausted-cell"]
    pending = {cells[i]: attempt for i, attempt in plan.pending}
    assert pending == {"timeout-cell": 2, "crashed-cell": 2, "fresh-cell": 1}


def test_plan_resume_rejects_a_foreign_journal(tmp_path):
    path = tmp_path / "run.jsonl"
    with BenchJournal(path) as journal:
        journal.write_header(["a", "b"], shard=None)
    with pytest.raises(ValueError, match="different suite"):
        plan_resume(["a", "c"], load_journal(path), max_retries=0)


# --------------------------------------------------------------------------- #
# Crash retry against real worker processes
# --------------------------------------------------------------------------- #
def test_crashed_worker_cell_is_retried_and_succeeds(tmp_path):
    marker = tmp_path / "crashed-once"
    journal_path = tmp_path / "run.jsonl"
    cells = [
        _selftest("selftest/flaky", op="crash-once", marker=str(marker)),
        _selftest("selftest/steady", op="ok", value=3),
    ]
    results = run_batch(cells, jobs=2, max_retries=1, journal_path=journal_path)
    by_name = {result.name: result for result in results}
    assert by_name["selftest/flaky"].status == "ok"
    assert by_name["selftest/flaky"].attempts == 2
    assert by_name["selftest/flaky"].payload == {"op": "crash-once", "survived": True}
    assert by_name["selftest/steady"].attempts == 1
    events = [json.loads(line) for line in journal_path.read_text().splitlines()]
    starts = [(e["cell"], e["attempt"]) for e in events if e["event"] == "start"]
    assert starts.count(("selftest/flaky", 1)) == 1
    assert starts.count(("selftest/flaky", 2)) == 1


def test_poisoned_cell_fails_after_max_retries_without_wedging_the_suite():
    cells = [
        _selftest("selftest/poisoned", op="crash", exit_code=41),
        _selftest("selftest/steady", op="ok"),
    ]
    results = run_batch(cells, jobs=2, max_retries=2)
    by_name = {result.name: result for result in results}
    assert by_name["selftest/poisoned"].status == "failed"
    assert by_name["selftest/poisoned"].attempts == 3
    assert "exit code 41" in by_name["selftest/poisoned"].error
    assert by_name["selftest/steady"].status == "ok"


def test_timed_out_worker_is_terminated_not_orphaned(tmp_path):
    pid_file = tmp_path / "sleeper.pid"
    cells = [_selftest("selftest/sleeper", op="sleep", seconds=300,
                       pid_file=str(pid_file))]
    start = time.monotonic()
    results = run_batch(cells, jobs=2, timeout=1.0)
    assert time.monotonic() - start < 60
    assert results[0].status == "timeout"
    _assert_pids_dead([int(pid_file.read_text())])


def _assert_pids_dead(pids, grace=10.0):
    deadline = time.monotonic() + grace
    remaining = list(pids)
    while remaining and time.monotonic() < deadline:
        remaining = [pid for pid in remaining if _alive(pid)]
        if remaining:
            time.sleep(0.1)
    assert not remaining, f"worker processes survived: {remaining}"


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - container quirk
        return True
    return True


# --------------------------------------------------------------------------- #
# Kill mid-suite, resume from the journal (the fleet's core property)
# --------------------------------------------------------------------------- #
_DRIVER = """
import sys
from repro.evaluation.runner import BenchInstance, run_batch, smt_suite

journal, pid_dir = sys.argv[1], sys.argv[2]
cells = smt_suite(
    strategies=("bisection",),
    instances=["single-gate", "chain-2", "triangle"],
    layout_kinds=("bottom",),
    time_limit=300,
)
for index in range(2):
    cells.append(BenchInstance(
        name=f"selftest/blocker-{index}",
        suite="selftest",
        spec={"kind": "selftest", "op": "sleep", "seconds": 600,
              "pid_file": f"{pid_dir}/blocker-{index}.pid"},
    ))
run_batch(cells, jobs=2, journal_path=journal)
"""


def _resume_suite(pid_dir, blocker_seconds):
    cells = smt_suite(
        strategies=("bisection",),
        instances=["single-gate", "chain-2", "triangle"],
        layout_kinds=("bottom",),
        time_limit=300,
    )
    for index in range(2):
        cells.append(BenchInstance(
            name=f"selftest/blocker-{index}",
            suite="selftest",
            spec={"kind": "selftest", "op": "sleep", "seconds": blocker_seconds,
                  "pid_file": f"{pid_dir}/resumed-{index}.pid"},
        ))
    return cells


def _launch_driver_and_interrupt(tmp_path):
    """Start the driver suite, SIGINT it mid-flight, return the journal.

    The interrupt is sent once both blockers have written their PID files:
    with two worker slots that implies every quick smt cell already
    completed (the blockers are queued last), so the kill lands exactly in
    the "some cells done, some in flight" state a resume must handle.
    """
    journal = tmp_path / "run.jsonl"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-c", _DRIVER, str(journal), str(tmp_path)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        pid_files = [tmp_path / f"blocker-{index}.pid" for index in range(2)]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if all(f.exists() and f.read_text() for f in pid_files):
                break
            if process.poll() is not None:  # pragma: no cover - diagnostic
                pytest.fail("driver exited before the blockers started")
            time.sleep(0.2)
        else:  # pragma: no cover - diagnostic path
            pytest.fail("blockers never started")
        os.kill(process.pid, signal.SIGINT)
        process.wait(timeout=60)
    finally:
        if process.poll() is None:  # pragma: no cover - defensive
            process.kill()
            process.wait(timeout=30)
    return journal


_TIMING_PAYLOAD_KEYS = (
    "solver_seconds",
    "sat_propagations_per_second",
    "sat_conflicts_per_second",
)


def test_resume_after_kill_yields_the_uninterrupted_payloads(tmp_path):
    journal = _launch_driver_and_interrupt(tmp_path)
    state = load_journal(journal)
    assert state.completed, "the interrupted run completed no cells"
    assert state.crashed_cells(), "the blockers should have been in flight"

    # Resume: same cell names, but the blockers collapse to instant sleeps
    # (resume identity is the cell name — the suite digest check passes).
    resumed = run_batch(
        _resume_suite(tmp_path, 0.01), jobs=2, journal_path=journal, resume=True
    )
    names = [result.name for result in resumed]
    assert len(names) == len(set(names)) == 5, "every cell exactly once"
    assert all(result.status == "ok" for result in resumed)

    # Cells completed before the kill were carried, not re-executed: the
    # journal holds exactly one start per completed smt cell.
    events = [json.loads(line) for line in journal.read_text().splitlines()]
    for cell in state.completed:
        starts = [e for e in events
                  if e["event"] == "start" and e["cell"] == cell]
        assert len(starts) == 1, f"{cell} was re-executed on resume"

    # The merged payloads match an uninterrupted run, modulo timing.
    uninterrupted = run_batch(_resume_suite(tmp_path, 0.01), jobs=1)
    for left, right in zip(resumed, uninterrupted):
        assert left.name == right.name
        left_payload = {k: v for k, v in left.payload.items()
                        if k not in _TIMING_PAYLOAD_KEYS}
        right_payload = {k: v for k, v in right.payload.items()
                         if k not in _TIMING_PAYLOAD_KEYS}
        assert left_payload == right_payload, left.name


def test_interrupted_run_leaves_no_worker_children_behind(tmp_path):
    _launch_driver_and_interrupt(tmp_path)
    pids = []
    for index in range(2):
        pid_file = tmp_path / f"blocker-{index}.pid"
        if pid_file.exists():
            pids.append(int(pid_file.read_text()))
    assert pids, "no blocker ever started — the interrupt came too early"
    _assert_pids_dead(pids)


def test_resume_requires_a_journal_path():
    with pytest.raises(ValueError, match="journal_path"):
        run_batch([_selftest("selftest/x", op="ok")], resume=True)


# --------------------------------------------------------------------------- #
# Schema v6 documents and shard merging
# --------------------------------------------------------------------------- #
def _shard_documents(tmp_path, count, cells=None):
    cells = cells if cells is not None else [
        _selftest(f"selftest/cell-{index}", op="ok", value=index)
        for index in range(7)
    ]
    names = [cell.name for cell in cells]
    paths = []
    for index in range(count):
        path = tmp_path / f"shard-{index}.json"
        run_batch(
            shard_suite(cells, index, count),
            jobs=1,
            output_path=path,
            shard=shard_info(names, index, count),
        )
        paths.append(path)
    return cells, paths


def test_document_records_shard_journal_digest_and_attempts(tmp_path):
    journal_path = tmp_path / "run.jsonl"
    output = tmp_path / "run.json"
    cells = [_selftest("selftest/a", op="ok")]
    run_batch(cells, jobs=1, journal_path=journal_path, output_path=output)
    document = load_document(output)
    assert document["version"] == 8
    assert document["shard"] == shard_info(["selftest/a"])
    assert document["journal_digest"] == file_digest(journal_path)
    assert document["results"][0]["attempts"] == 1
    # And the loader round-trips the new field.
    assert load_results(output)[0].attempts == 1


def test_merge_shard_documents_reproduces_the_unsharded_cell_set(tmp_path):
    cells, paths = _shard_documents(tmp_path, 3)
    merged = merge_documents([load_document(path) for path in paths])
    assert merged["version"] == 8
    assert merged["num_instances"] == len(cells)
    assert merged["num_ok"] == len(cells)
    assert sorted(e["name"] for e in merged["results"]) == sorted(
        cell.name for cell in cells
    )
    assert merged["shard"]["merged_from"] == 3
    assert merged["shard"]["suite_digest"] == suite_digest(
        [cell.name for cell in cells]
    )


def test_merge_rejects_missing_duplicated_and_corrupt_shards(tmp_path):
    _, paths = _shard_documents(tmp_path, 2)
    first = load_document(paths[0])
    second = load_document(paths[1])
    with pytest.raises(ValueError, match="missing or duplicated"):
        merge_documents([first])
    with pytest.raises(ValueError, match="missing or duplicated"):
        merge_documents([first, first])
    with pytest.raises(ValueError, match="more than one shard"):
        merge_documents([first, {**second,
                                 "results": second["results"] + first["results"][:1],
                                 "shard": second["shard"]}])
    # A cell on the wrong shard (renamed or mis-partitioned) is caught.
    wrong = json.loads(json.dumps(second))
    wrong["results"][0]["name"] = "selftest/not-in-the-suite"
    with pytest.raises(ValueError, match="hashes to shard|suite digest"):
        merge_documents([first, wrong])
    # Dropping a cell is caught as a coverage loss.
    short = json.loads(json.dumps(second))
    short["results"] = short["results"][1:]
    with pytest.raises(ValueError, match="missing"):
        merge_documents([first, short])
    # Pre-v6 documents cannot prove disjointness/exhaustiveness.
    with pytest.raises(ValueError, match="schema v6"):
        merge_documents([{**first, "version": 5}])


def test_merge_rejects_shards_of_different_suites(tmp_path):
    _, paths = _shard_documents(tmp_path, 2)
    (tmp_path / "other").mkdir()
    other_cells = [_selftest(f"selftest/other-{i}", op="ok") for i in range(3)]
    _, other_paths = _shard_documents(tmp_path / "other", 2, cells=other_cells)
    with pytest.raises(ValueError, match="disagree"):
        merge_documents([load_document(paths[0]), load_document(other_paths[1])])


# --------------------------------------------------------------------------- #
# CLI: bench --shard / --journal / --resume and bench-merge
# --------------------------------------------------------------------------- #
def test_bench_cli_shard_and_merge_reproduce_the_unsharded_suite(
    tmp_path, capsys
):
    common = ["bench", "--suite", "smt", "--strategy", "bisection",
              "--timeout", "300"]
    for index in range(2):
        assert main(common + [
            "--shard", f"{index}/2",
            "--journal", str(tmp_path / f"shard-{index}.jsonl"),
            "--output", str(tmp_path / f"shard-{index}.json"),
        ]) == 0
    assert main([
        "bench-merge",
        str(tmp_path / "shard-0.json"), str(tmp_path / "shard-1.json"),
        "--output", str(tmp_path / "merged.json"),
    ]) == 0
    text = capsys.readouterr().out
    assert "merged 2 shard(s): 13 cells (13 ok)" in text
    merged = load_document(tmp_path / "merged.json")
    unsharded = smt_suite(strategies=("bisection",))
    assert sorted(e["name"] for e in merged["results"]) == sorted(
        inst.name for inst in unsharded
    )


def test_bench_cli_rejects_a_malformed_shard(capsys):
    assert main(["bench", "--suite", "smt", "--shard", "two/three"]) == 2
    assert "--shard must be I/N" in capsys.readouterr().err
    assert main(["bench", "--suite", "smt", "--shard", "3/2"]) == 2


def test_bench_cli_resume_rejects_a_foreign_journal(tmp_path, capsys):
    journal = tmp_path / "foreign.jsonl"
    with BenchJournal(journal) as handle:
        handle.write_header(["some/other/suite"], shard=None)
    assert main([
        "bench", "--suite", "smt", "--strategy", "bisection",
        "--resume", str(journal),
    ]) == 2
    assert "different suite" in capsys.readouterr().err


def test_bench_merge_cli_reports_validation_failures(tmp_path, capsys):
    _, paths = _shard_documents(tmp_path, 2)
    assert main([
        "bench-merge", str(paths[0]), str(paths[0]),
        "--output", str(tmp_path / "merged.json"),
    ]) == 1
    assert "missing or duplicated" in capsys.readouterr().err
