"""Unit tests for the certified-result cache and the request ledger."""

import json

import pytest

from repro.core.report import TERMINATION_CERTIFIED
from repro.service.cache import CertifiedResultCache
from repro.service.ledger import RequestLedger, load_ledger

KEY_A = "a" * 64
KEY_B = "b" * 64


def _certified(num_stages=3, **extra):
    return {
        "found": True,
        "optimal": True,
        "termination": TERMINATION_CERTIFIED,
        "num_stages": num_stages,
        **extra,
    }


# --------------------------------------------------------------------------- #
# Admission policy
# --------------------------------------------------------------------------- #
def test_cache_admits_only_certified_entries():
    cache = CertifiedResultCache()
    assert cache.put(KEY_A, _certified()) is True
    for termination in ("deadline", "backend-error", "pending", None):
        with pytest.raises(ValueError):
            cache.put(KEY_B, {"found": True, "termination": termination})
    assert KEY_B not in cache


def test_cache_first_certificate_wins():
    cache = CertifiedResultCache()
    assert cache.put(KEY_A, _certified(num_stages=3)) is True
    # A second certificate for the same key is a no-op, not an overwrite:
    # certified optima for one canonical key must agree, so the first one
    # is as good as any later one.
    assert cache.put(KEY_A, _certified(num_stages=99)) is False
    assert cache.get(KEY_A)["num_stages"] == 3


def test_cache_get_returns_a_copy():
    cache = CertifiedResultCache()
    cache.put(KEY_A, _certified())
    entry = cache.get(KEY_A)
    entry["num_stages"] = 1234
    assert cache.get(KEY_A)["num_stages"] == 3


def test_cache_stats_track_hits_and_misses():
    cache = CertifiedResultCache()
    cache.put(KEY_A, _certified())
    assert cache.get(KEY_A) is not None
    assert cache.get(KEY_B) is None
    assert cache.get(KEY_A) is not None
    stats = cache.stats()
    assert stats == {
        "entries": 1,
        "hits": 2,
        "misses": 1,
        "hit_rate": pytest.approx(2 / 3),
    }
    assert len(cache) == 1


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #
def test_cache_persists_and_reloads(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = CertifiedResultCache(path=path)
    first.put(KEY_A, _certified(num_stages=4))
    first.close()

    second = CertifiedResultCache(path=path)
    assert second.get(KEY_A)["num_stages"] == 4
    assert len(second) == 1
    second.close()


def test_cache_reload_tolerates_torn_tail(tmp_path):
    # Flush-per-line means a crash can leave at most one torn final line;
    # reload must keep every complete entry and drop the torn one.
    path = tmp_path / "cache.jsonl"
    cache = CertifiedResultCache(path=path)
    cache.put(KEY_A, _certified())
    cache.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "' + KEY_B + '", "entry": {"fo')

    reloaded = CertifiedResultCache(path=path)
    assert KEY_A in reloaded
    assert KEY_B not in reloaded
    reloaded.close()


@pytest.mark.parametrize("line", ["[1]", "3", '"x"', "null"])
def test_cache_reload_skips_lines_that_are_not_records(tmp_path, line):
    # A line that parses as JSON but is not an object is skipped like a
    # torn line; the entries around it still load.
    path = tmp_path / "cache.jsonl"
    records = [
        json.dumps({"key": KEY_A, "entry": _certified(num_stages=4)}),
        line,
        json.dumps({"key": KEY_B, "entry": _certified(num_stages=5)}),
    ]
    path.write_text("".join(record + "\n" for record in records), encoding="utf-8")

    reloaded = CertifiedResultCache(path=path)
    assert reloaded.get(KEY_A)["num_stages"] == 4
    assert reloaded.get(KEY_B)["num_stages"] == 5
    assert len(reloaded) == 2
    reloaded.close()


def test_cache_reload_keeps_the_first_certificate(tmp_path):
    # Reload applies put()'s rule: the first certified line of a key wins,
    # and a non-certified line is never admitted.
    path = tmp_path / "cache.jsonl"
    lines = [
        {"key": KEY_A, "entry": _certified(num_stages=4)},
        {"key": KEY_A, "entry": _certified(num_stages=9)},
        {"key": KEY_B, "entry": {**_certified(), "termination": "deadline"}},
    ]
    path.write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
    )

    reloaded = CertifiedResultCache(path=path)
    assert reloaded.get(KEY_A)["num_stages"] == 4
    assert KEY_B not in reloaded
    assert len(reloaded) == 1
    reloaded.close()


def test_cache_file_lines_are_valid_json(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = CertifiedResultCache(path=path)
    cache.put(KEY_A, _certified())
    cache.put(KEY_B, _certified(num_stages=5))
    cache.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines if line.strip()]
    assert {record["key"] for record in records} == {KEY_A, KEY_B}
    assert all("entry" in record for record in records)


# --------------------------------------------------------------------------- #
# Request ledger
# --------------------------------------------------------------------------- #
def test_ledger_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with RequestLedger(path) as ledger:
        ledger.record_request("req-000001")
        ledger.record_verdict(
            "req-000001",
            {"termination": "certified", "cached": False, "status": "ok"},
        )
        ledger.record_request("req-000002")  # accepted, never finished

    state = load_ledger(path)
    assert state.completed["req-000001"]["termination"] == "certified"
    assert state.crashed_cells() == ["req-000002"]
