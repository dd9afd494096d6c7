"""Tests for the parallel batch evaluation engine."""

import json

import pytest

from repro.evaluation.runner import (
    BenchInstance,
    BenchResult,
    SMT_STRATEGIES,
    build_suite,
    check_backend_agreement,
    check_bounds_soundness,
    execute_spec,
    format_batch,
    load_results,
    run_batch,
    save_results,
    smt_suite,
    table1_suite,
)


# --------------------------------------------------------------------------- #
# Suite construction
# --------------------------------------------------------------------------- #
def test_build_suite_shapes():
    # 5 instances on the none/bottom layouts plus the 3 airborne-feasible
    # instances on the shielded storage-less pseudo-layout = 13 cells per
    # strategy (linear, bisection).
    smt = build_suite("smt")
    assert len(smt) == 2 * (2 * 5 + 3)
    assert all(inst.suite == "smt" for inst in smt)
    table1 = build_suite("table1", codes=["steane"])
    assert len(table1) == 3  # three layouts
    exploration = build_suite("exploration", codes=["steane", "surface"])
    assert len(exploration) == 2
    everything = build_suite("all", codes=["steane"], strategies=["linear"])
    assert len(everything) == 13 + 3 + 1


def test_smt_suite_shielded_axis_only_pairs_feasible_instances():
    """The none-shielded pseudo-layout keeps only instances whose beams can
    keep every qubit busy; the spec forces the shielding override."""
    suite = smt_suite(strategies=("bisection",), layout_kinds=("none-shielded",))
    assert [inst.name for inst in suite] == [
        "smt/bisection/none-shielded/single-gate",
        "smt/bisection/none-shielded/disjoint-pairs",
        "smt/bisection/none-shielded/ring-4",
    ]
    for inst in suite:
        assert inst.spec["layout"] == "none-shielded"
        assert inst.spec["problem"]["layout"]["kind"] == "none"
        assert inst.spec["problem"]["shielding"] is True


def test_execute_smt_spec_shielded_storage_less_certifies_without_probes():
    [instance] = smt_suite(
        strategies=("bisection",),
        instances=["ring-4"],
        layout_kinds=("none-shielded",),
        time_limit=300,
    )
    payload = execute_spec(instance.spec)
    assert payload["layout"] == "none-shielded"
    assert payload["found"] and payload["optimal"] and payload["validated"]
    assert payload["stages_tried"] == []
    assert payload["upper_bound"] == payload["num_stages"] == 2
    assert payload["upper_bound_source"] == "structured-airborne"


def test_build_suite_unknown_name():
    with pytest.raises(ValueError):
        build_suite("nope")


def test_smt_suite_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        smt_suite(strategies=["simulated-annealing"])


def test_smt_suite_names_carry_the_strategy():
    suite = smt_suite(strategies=("bisection",), instances=["triangle"])
    assert [inst.name for inst in suite] == [
        "smt/bisection/none/triangle",
        "smt/bisection/bottom/triangle",
    ]


def test_smt_suite_fans_the_backend_axis():
    suite = smt_suite(
        strategies=("linear",),
        instances=["single-gate"],
        layout_kinds=("none",),
        backends=(None, "reference"),
    )
    # The default backend keeps the historical names; explicit backends are
    # prefixed so both runs coexist in one batch without name collisions.
    assert [inst.name for inst in suite] == [
        "smt/linear/none/single-gate",
        "smt/reference/linear/none/single-gate",
    ]
    assert suite[0].spec["sat_backend"] is None
    assert suite[1].spec["sat_backend"] == "reference"


def test_execute_smt_spec_records_the_backend():
    [default_inst, reference_inst] = smt_suite(
        strategies=("linear",),
        instances=["single-gate"],
        layout_kinds=("none",),
        time_limit=300,
        backends=(None, "reference"),
    )
    default_payload = execute_spec(default_inst.spec)
    reference_payload = execute_spec(reference_inst.spec)
    assert default_payload["sat_backend"] == "flat"
    assert reference_payload["sat_backend"] == "reference"
    assert default_payload["num_stages"] == reference_payload["num_stages"]
    assert check_backend_agreement([
        BenchResult("a", "smt", "ok", 0.1, default_payload)
    ], [
        BenchResult("b", "smt", "ok", 0.1, reference_payload)
    ]) == [("linear", "none", "single-gate")]


def test_check_backend_agreement_rejects_disagreements():
    def result(sat_backend, num_stages=3, optimal=True):
        return BenchResult(
            name="smt/linear/bottom/chain-2",
            suite="smt",
            status="ok",
            seconds=0.1,
            payload={
                "strategy": "linear",
                "sat_backend": sat_backend,
                "layout": "bottom",
                "instance": "chain-2",
                "found": True,
                "optimal": optimal,
                "num_stages": num_stages,
            },
        )

    with pytest.raises(ValueError, match="share no"):
        check_backend_agreement([result("flat")], [])
    with pytest.raises(ValueError, match="certified 4"):
        check_backend_agreement(
            [result("flat")], [result("ipasir", num_stages=4)]
        )
    with pytest.raises(ValueError, match="failed to certify"):
        check_backend_agreement(
            [result("flat")], [result("ipasir", optimal=False)]
        )
    with pytest.raises(ValueError, match="does not record"):
        check_backend_agreement([result("flat")], [result(None)])
    # A batch that fans several backends shadows all but one result per
    # cell; the check must refuse instead of comparing vacuously.
    with pytest.raises(ValueError, match="mixes SAT backends"):
        check_backend_agreement(
            [result("flat"), result("reference")], [result("ipasir")]
        )


# --------------------------------------------------------------------------- #
# Spec execution
# --------------------------------------------------------------------------- #
def test_execute_table1_spec():
    instance = table1_suite(codes=["steane"])[0]
    payload = execute_spec(instance.spec)
    assert payload["code"] == "steane"
    assert payload["num_rydberg_stages"] > 0
    assert 0.0 < payload["asp"] <= 1.0
    json.dumps(payload)  # payloads must be JSON-serialisable


def test_execute_smt_spec_all_strategies_agree():
    instances = smt_suite(
        strategies=SMT_STRATEGIES,
        instances=["chain-2"],
        layout_kinds=("bottom",),
        time_limit=300,
    )
    payloads = [execute_spec(inst.spec) for inst in instances]
    assert all(p["found"] and p["optimal"] and p["validated"] for p in payloads)
    assert {p["num_stages"] for p in payloads} == {3}
    json.dumps(payloads)


@pytest.mark.parametrize(
    "strategy, horizons", [("linear", [4, 5]), ("bisection", [5, 4])]
)
def test_execute_smt_spec_records_the_one_search_that_ran(strategy, horizons):
    """A cell's payload describes the single search of its strategy: its
    name, its own probe order and no record of any other configuration."""
    [instance] = smt_suite(
        strategies=(strategy,), instances=["triangle"], layout_kinds=("bottom",)
    )
    payload = execute_spec(instance.spec)
    assert payload["strategy"] == strategy
    assert payload["found"] and payload["optimal"] and payload["validated"]
    assert payload["num_stages"] == 5
    assert payload["stages_tried"] == horizons
    assert payload["num_horizons"] == len(horizons)
    assert "winner" not in payload
    json.dumps(payload)


def test_execute_smt_spec_records_search_trajectory():
    [instance] = smt_suite(
        strategies=("bisection",), instances=["chain-2"], layout_kinds=("bottom",)
    )
    payload = execute_spec(instance.spec)
    assert payload["strategy"] == "bisection"
    # The +T transfer certificate lifts the chain's analytic bound to the
    # optimum, so bisection certifies it without probing a single horizon.
    assert payload["lower_bound"] == 3
    assert payload["upper_bound"] >= payload["num_stages"] == 3
    assert payload["num_horizons"] == len(payload["stages_tried"])


# --------------------------------------------------------------------------- #
# Batch execution
# --------------------------------------------------------------------------- #
def _tiny_suite():
    return smt_suite(
        strategies=("linear",),
        instances=["single-gate", "disjoint-pairs"],
        layout_kinds=("none",),
        time_limit=300,
    )


def test_run_batch_serial_with_json_output(tmp_path):
    output = tmp_path / "results.json"
    results = run_batch(_tiny_suite(), jobs=1, output_path=output)
    assert [r.status for r in results] == ["ok", "ok"]
    assert all(r.seconds >= 0 for r in results)
    document = json.loads(output.read_text())
    assert document["num_instances"] == 2
    assert document["num_ok"] == 2
    assert document["version"] == 8
    reloaded = load_results(output)
    assert [r.name for r in reloaded] == [r.name for r in results]


def test_run_batch_parallel_matches_serial(tmp_path):
    suite = _tiny_suite()
    serial = run_batch(suite, jobs=1)
    parallel = run_batch(suite, jobs=2, output_path=tmp_path / "parallel.json")
    assert [r.name for r in parallel] == [r.name for r in serial]
    assert all(r.ok for r in parallel)
    for left, right in zip(serial, parallel):
        assert left.payload["num_stages"] == right.payload["num_stages"]


def test_run_batch_records_errors():
    broken = BenchInstance(name="broken", suite="smt", spec={"kind": "nonsense"})
    results = run_batch([broken], jobs=1)
    assert results[0].status == "error"
    assert "nonsense" in results[0].error
    assert "0/1 instances ok" in format_batch(results)


def test_format_batch_mentions_instances():
    results = run_batch(_tiny_suite(), jobs=1)
    text = format_batch(results)
    assert "single-gate" in text
    assert "2/2 instances ok" in text


# --------------------------------------------------------------------------- #
# Payloads and schema version gating
# --------------------------------------------------------------------------- #
def test_save_results_document_carries_every_field(tmp_path):
    """Every payload field a bench cell or loadtest writes survives saving."""
    result = BenchResult(
        name="smt/bisection/bottom/chain-2",
        suite="smt",
        status="ok",
        seconds=0.1,
        payload={
            "strategy": "bisection",
            "sat_backend": "flat",
            "layout": "bottom",
            "instance": "chain-2",
            "found": True,
            "optimal": True,
            "num_stages": 3,
            "lower_bound_source": "clique+transfer",
            "upper_bound_source": "structured-airborne",
            "sat_propagations_per_second": 1.5e6,
            "termination": "certified",
            "backend_retries": 0,
            "latency_p50_seconds": 0.02,
            "latency_p99_seconds": 0.09,
            "cache_hit_rate": 0.5,
        },
    )
    path = tmp_path / "run.json"
    save_results([result], path)
    document = json.loads(path.read_text())
    assert document["version"] == 8
    assert document["shard"]["suite_cells"] == 1
    assert document["journal_digest"] is None
    [entry] = document["results"]
    assert entry["attempts"] == 1
    assert entry["payload"] == result.payload


def test_load_results_tolerates_documents_without_the_newer_fields(tmp_path):
    """Readers take what a document has: one written before the fleet and
    robustness fields (no shard, journal digest, attempts or termination)
    still loads, with the missing ``attempts`` at its default."""
    path = tmp_path / "old.json"
    entry = {
        "name": "smt/linear/bottom/chain-2",
        "suite": "smt",
        "status": "ok",
        "seconds": 0.1,
        "payload": {"strategy": "linear", "num_stages": 3, "optimal": True},
        "error": None,
    }
    path.write_text(json.dumps(
        {"version": 5, "num_instances": 1, "num_ok": 1, "results": [entry]}
    ))
    [result] = load_results(path)
    assert result.ok
    assert result.attempts == 1
    assert result.payload == entry["payload"]


# --------------------------------------------------------------------------- #
# Bounds-soundness gate (used by the CI bench-regression job)
# --------------------------------------------------------------------------- #
def _bounds_payload(**overrides):
    payload = {
        "strategy": "bisection",
        "layout": "bottom",
        "instance": "triangle",
        "found": True,
        "optimal": True,
        "num_stages": 5,
        "lower_bound": 4,
        "upper_bound": 7,
        "lower_bound_source": "clique+transfer",
        "upper_bound_source": "structured-homes",
    }
    payload.update(overrides)
    return BenchResult(
        name="smt/bisection/bottom/triangle",
        suite="smt",
        status="ok",
        seconds=0.1,
        payload=payload,
    )


def test_check_bounds_soundness_accepts_a_real_smoke_batch():
    results = run_batch(
        smt_suite(
            strategies=("bisection",),
            instances=["triangle", "ring-4"],
            layout_kinds=("bottom", "none-shielded"),
        ),
        jobs=1,
    )
    assert check_bounds_soundness(results, expect_clique={"triangle": 3}) == 3


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"lower_bound": 6}, "unsound"),
        ({"upper_bound": 4}, "unsound"),
        ({"lower_bound_source": None}, "certificate source"),
        ({"upper_bound_source": None}, "witness source"),
        ({"lower_bound": 2}, "clique"),
    ],
)
def test_check_bounds_soundness_rejects_violations(overrides, message):
    with pytest.raises(ValueError, match=message):
        check_bounds_soundness(
            [_bounds_payload(**overrides)], expect_clique={"triangle": 3}
        )


def test_check_bounds_soundness_requires_certified_cells():
    with pytest.raises(ValueError, match="no certified"):
        check_bounds_soundness([_bounds_payload(optimal=False)])
