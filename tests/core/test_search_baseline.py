"""Pin the deterministic smoke search to the committed bench baseline.

``benchmarks/baselines/BENCH_BASELINE.json`` records, for the 13 smoke
cells under each deterministic search (``linear`` and ``bisection``),
every horizon probed and the certified interval with its provenance.
Running the same 26 cells serially through the bench
runner's :func:`~repro.evaluation.runner.execute_spec` must reproduce
those fields exactly: any change to the search loop, the horizon orders,
the bounds engine or the structured witness that moves a probe or a bound
shows up here, not only in CI's ``bench-trend`` gate.
"""

import json
from pathlib import Path

import pytest

from repro.evaluation.runner import build_suite, execute_spec

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "baselines"
    / "BENCH_BASELINE.json"
)

#: The search-trajectory fields that are deterministic (no timings).
PINNED_FIELDS = (
    "stages_tried",
    "lower_bound",
    "lower_bound_source",
    "upper_bound",
    "upper_bound_source",
    "termination",
    "optimal",
    "num_stages",
)


def _baseline_payloads():
    document = json.loads(BASELINE.read_text(encoding="utf-8"))
    return {result["name"]: result["payload"] for result in document["results"]}


BASELINE_PAYLOADS = _baseline_payloads()
CELLS = {
    instance.name: instance.spec
    for instance in build_suite(
        "smt", strategies=("linear", "bisection"), time_limit=120.0
    )
}


def test_baseline_covers_the_deterministic_smoke_matrix():
    assert len(CELLS) == 26
    assert sorted(BASELINE_PAYLOADS) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_smoke_search_matches_the_committed_baseline(name):
    payload = execute_spec(CELLS[name])
    expected = BASELINE_PAYLOADS[name]
    assert {field: payload.get(field) for field in PINNED_FIELDS} == {
        field: expected.get(field) for field in PINNED_FIELDS
    }
