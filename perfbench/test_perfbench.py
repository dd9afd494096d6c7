"""Checks of the benchmark itself: determinism of its traced counts and its
agreement with ``BENCHMARK.json``.

Run from the checkout root: ``python -m pytest perfbench -q`` (about 30 s).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Traced counts that must repeat exactly for one seed.
DETERMINISTIC_COUNTS = (
    "search.probes",
    "search.sat_probes",
    "search.unsat_probes",
    "smt.checks",
    "smt.vars",
    "smt.clauses",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
    "problem.lower_bound",
    "structured.upper_bound",
    "canonical.calls",
)


def _traced_smoke_pass(seed):
    state = workloads.prepare("smoke-sweep", seed)
    outcome = workloads.Outcome()
    tracer = Tracer()
    solves = workloads._Solves(HostSpeed(), keep_reports=True)
    with tracer:
        workloads._smoke_pass(state, outcome, solves, state["first"])
    workloads._record_reports(tracer, solves.reports)
    assert outcome.failed == 0, outcome.errors
    assert outcome.attempted == 26
    return {name: tracer.counts[name] for name in DETERMINISTIC_COUNTS}


def test_smoke_pass_counts_repeat_exactly():
    first = _traced_smoke_pass(7)
    assert first == _traced_smoke_pass(7)
    assert first["search.probes"] > 0 and first["sat.conflicts"] > 0


def _catalogue_session(seed):
    catalogue = inputs.service_catalogue()
    outcome = workloads.Outcome()
    session = asyncio.run(
        workloads._service_session(catalogue, seed, outcome, requests=150, callers=1)
    )
    assert outcome.failed == 0, outcome.errors
    return session, outcome


def test_service_catalogue_misses_repeat_exactly():
    first, first_outcome = _catalogue_session(3)
    second, second_outcome = _catalogue_session(3)
    assert first_outcome.attempted == second_outcome.attempted == 150
    # One caller: every distinct problem misses exactly once, in the same order.
    assert list(first.first_solve) == list(second.first_solve)
    assert len(first.misses) == len(first.first_solve) == len(second.misses)
    assert first.hit_count == second.hit_count
    assert first.optima == second.optima


def test_every_catalogue_problem_has_an_expected_optimum():
    catalogue = inputs.service_catalogue()
    assert len(catalogue) == 36
    assert all(isinstance(expected, int) for _, expected, _ in catalogue)


def test_request_stream_is_a_function_of_the_seed():
    catalogue = inputs.service_catalogue()
    a, b = inputs.RequestStream(catalogue, 5), inputs.RequestStream(catalogue, 5)
    assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]


def test_relabeling_is_an_isomorphism():
    def degrees(edges):
        return sorted(sum(q in gate for gate in edges) for q in range(4))

    gates = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    relabeled = inputs.relabel(4, gates, random.Random(1))
    assert len(relabeled) == len(gates) and degrees(relabeled) == degrees(gates)


def test_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    per_layer = run._per_layer(Tracer(), {"timed_wall_s": 1.0, "overhead_frac": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()
    }
    for metric in spec["end_to_end"]:
        assert run._UNITS[metric["name"]] == metric["unit"]
