"""Tests for the load-test harness and its bench-schema-v8 payload."""

import pytest

from repro.evaluation.runner import load_document, save_results
from repro.service.loadtest import (
    DEFAULT_INSTANCES,
    _build_requests,
    format_loadtest,
    loadtest_result,
    percentile,
    run_loadtest,
)


# --------------------------------------------------------------------------- #
# Nearest-rank percentiles
# --------------------------------------------------------------------------- #
def test_percentile_nearest_rank():
    sample = [4.0, 1.0, 3.0, 2.0]
    assert percentile(sample, 0.50) == 2.0
    assert percentile(sample, 0.25) == 1.0
    assert percentile(sample, 0.99) == 4.0
    assert percentile(sample, 1.00) == 4.0
    assert percentile([7.0], 0.50) == 7.0


def test_percentile_reports_an_observed_value():
    # Nearest-rank never interpolates: the reported latency is one a
    # request actually experienced.
    sample = [0.010, 0.011, 0.012, 1.500]
    assert percentile(sample, 0.99) in sample
    assert percentile(sample, 0.50) in sample


def test_percentile_rejects_bad_inputs():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# --------------------------------------------------------------------------- #
# Traffic generation
# --------------------------------------------------------------------------- #
def test_build_requests_is_seeded_and_isomorphic():
    from repro.core.canonical import canonical_key
    from repro.service.server import problem_from_document

    first = _build_requests(8, DEFAULT_INSTANCES, 3, "bottom", "bisection", None)
    again = _build_requests(8, DEFAULT_INSTANCES, 3, "bottom", "bisection", None)
    other = _build_requests(8, DEFAULT_INSTANCES, 4, "bottom", "bisection", None)
    assert first == again  # same seed -> byte-identical traffic
    assert first != other  # different seed -> different relabelings

    # Requests for the same base instance are relabeled copies: canonical
    # keys collide within a base instance even when the gate bytes differ.
    keys = [canonical_key(problem_from_document(doc)) for doc in first]
    assert keys[0] == keys[4] and keys[1] == keys[5]
    assert len(set(keys)) == len(DEFAULT_INSTANCES)


def test_build_requests_round_robins_the_mix():
    docs = _build_requests(6, ("triangle", "ring-4"), 0, "bottom", "linear", 2.5)
    assert [len(doc["gates"]) for doc in docs] == [3, 4, 3, 4, 3, 4]
    assert all(doc["strategy"] == "linear" for doc in docs)
    assert all(doc["deadline"] == 2.5 for doc in docs)


def test_run_loadtest_validates_inputs():
    with pytest.raises(ValueError, match="unknown instances"):
        run_loadtest(requests=2, instances=("no-such-instance",))
    with pytest.raises(ValueError, match="at least one request"):
        run_loadtest(requests=0)
    with pytest.raises(ValueError, match="unknown strategy 'nope'"):
        run_loadtest(requests=2, strategy="nope")


# --------------------------------------------------------------------------- #
# End to end: the harness must demonstrate a warm cache
# --------------------------------------------------------------------------- #
def test_loadtest_end_to_end_reports_latency_and_cache_hits(tmp_path):
    payload = run_loadtest(
        requests=8, concurrency=2, jobs=2, seed=11, instances=("triangle",)
    )
    assert payload["ok"] == 8
    assert payload["errors"] == 0
    assert payload["rejected"] == 0
    assert payload["transport_errors"] == 0
    # Eight relabeled copies of one instance: everything after the first
    # solve (modulo concurrent misses racing the first certificate) is a
    # canonical-cache hit.
    assert payload["cache_hits"] >= 1
    assert payload["cache_hit_rate"] > 0
    assert payload["cache_hits"] + payload["cache_misses"] == 8
    assert payload["terminations"] == {"certified": 8}
    assert payload["latency_p50_seconds"] <= payload["latency_p99_seconds"]
    assert payload["latency_p99_seconds"] <= payload["latency_max_seconds"]

    # The payload round-trips through the bench document with the
    # latency/cache keys.
    result = loadtest_result(payload)
    assert result.status == "ok"
    path = tmp_path / "loadtest.json"
    save_results([result], path)
    document = load_document(path)
    assert document["version"] == 8
    saved = document["results"][0]["payload"]
    assert saved["cache_hit_rate"] > 0
    for key in ("latency_p50_seconds", "latency_p99_seconds", "cache_hit_rate"):
        assert key in saved

    text = format_loadtest(payload)
    assert "cache hit-rate" in text
    assert "latency p50" in text


def test_loadtest_result_flags_failed_requests():
    payload = {
        "requests": 2,
        "ok": 1,
        "errors": 1,
        "rejected": 0,
        "seconds_total": 1.0,
    }
    result = loadtest_result(payload)
    assert result.status == "error"
    assert "1 request(s) failed" in result.error
