"""Tests for the minimum-stage search strategies.

Covers the strategy table, the agreement of linear/bisection on the certified
optimum across sub-instances of every registered code and every smoke cell,
the soundness of the analytic lower bound against certified optima, and the
determinism of one in-process search per run.
"""

import pytest

from repro.arch import reduced_layout
from repro.core.problem import SchedulingProblem, problem_from_document
from repro.core.scheduler import SMTScheduler
from repro.core.strategies import (
    SearchContext,
    SearchLimits,
    available_strategies,
    get_strategy,
)
from repro.core.strategies.base import accumulate_statistics
from repro.core.validator import validate_schedule
from repro.evaluation.runner import SMT_INSTANCES, build_suite, smt_document
from repro.qec import available_codes, get_code
from repro.qec.state_prep import state_preparation_circuit

STRATEGIES = ("linear", "bisection")

#: The SMT bench suite's 13 smoke cells, as ``(layout, instance)``.
SMOKE_CELLS = [
    (cell.spec["layout"], cell.spec["instance"])
    for cell in build_suite("smt", strategies=("linear",))
]


def tiny_layout(kind):
    return reduced_layout(kind, x_max=2, h_max=1, v_max=1, c_max=2, r_max=2)


def tiny_problem(kind, num_qubits, gates):
    return SchedulingProblem.from_gates(tiny_layout(kind), num_qubits, gates)


def code_subproblem(code_name, kind="bottom", max_qubits=4):
    """The prep circuit of *code_name* restricted to its first qubits."""
    prep = state_preparation_circuit(get_code(code_name))
    keep = sorted(
        {q for gate in prep.cz_gates for q in gate}
    )[:max_qubits]
    remap = {q: i for i, q in enumerate(keep)}
    gates = [
        (remap[a], remap[b])
        for a, b in prep.cz_gates
        if a in remap and b in remap
    ]
    if not gates:  # pragma: no cover - every code has local CZ pairs
        gates = [(0, 1)]
    return SchedulingProblem.from_gates(tiny_layout(kind), len(keep), gates)


# --------------------------------------------------------------------------- #
# Strategy table
# --------------------------------------------------------------------------- #
def test_registry_lists_builtin_strategies():
    assert available_strategies() == ["bisection", "linear"]


def test_unknown_strategy_rejected():
    for name in ("simulated-annealing", "portfolio"):
        with pytest.raises(ValueError):
            get_strategy(name)
        with pytest.raises(ValueError):
            SMTScheduler(strategy=name)


# --------------------------------------------------------------------------- #
# Agreement across strategies, for every registered code
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("code_name", available_codes())
def test_strategies_agree_on_stage_counts_for_all_codes(code_name):
    """linear/bisection certify the same optimum on a reduced
    sub-instance of every registered code's preparation circuit."""
    problem = code_subproblem(code_name)
    stage_counts = {}
    for name in STRATEGIES:
        report = SMTScheduler(time_limit_per_instance=300, strategy=name).schedule(
            problem
        )
        assert report.found and report.optimal, (code_name, name)
        validate_schedule(report.schedule, require_shielding=problem.shielding)
        stage_counts[name] = report.schedule.num_stages
        assert report.lower_bound <= report.schedule.num_stages
        if report.upper_bound is not None:
            assert report.schedule.num_stages <= report.upper_bound
    assert len(set(stage_counts.values())) == 1, stage_counts


@pytest.mark.parametrize("layout_kind", ["none", "bottom"])
@pytest.mark.parametrize("instance_name", list(SMT_INSTANCES))
def test_lower_bound_never_exceeds_certified_optimum(layout_kind, instance_name):
    num_qubits, gates = SMT_INSTANCES[instance_name]
    problem = tiny_problem(layout_kind, num_qubits, gates)
    report = SMTScheduler(time_limit_per_instance=300).schedule(problem)
    assert report.found and report.optimal
    assert problem.lower_bound() <= report.schedule.num_stages


# --------------------------------------------------------------------------- #
# Bisection specifics
# --------------------------------------------------------------------------- #
def test_bisection_certifies_degenerate_interval_without_probes():
    """When the structured upper bound equals the lower bound, the optimum
    is certified analytically — zero SMT horizons."""
    report = SMTScheduler(strategy="bisection").schedule(
        tiny_problem("bottom", 2, [(0, 1)])
    )
    assert report.found and report.optimal
    assert report.stages_tried == []
    assert report.lower_bound == report.upper_bound == 1
    assert report.schedule.num_stages == 1
    assert report.schedule.metadata["backend"] == "structured"


def test_bisection_never_probes_more_than_linear_on_the_triangle():
    """The clique+transfer certificates start the triangle walk at 4, so
    both strategies now reach the optimum (5) within two probes; bisection
    must not fall behind linear on the tightened interval."""
    problem = tiny_problem("bottom", 3, [(0, 1), (1, 2), (0, 2)])
    linear = SMTScheduler(time_limit_per_instance=300, strategy="linear").schedule(
        problem
    )
    bisection = SMTScheduler(
        time_limit_per_instance=300, strategy="bisection"
    ).schedule(problem)
    assert linear.schedule.num_stages == bisection.schedule.num_stages == 5
    assert linear.lower_bound == bisection.lower_bound == 4
    assert linear.stages_tried == [4, 5]
    assert bisection.num_horizons <= linear.num_horizons


def test_ring_certifies_without_probes_under_both_orders():
    """The airborne witness closes the ring's interval analytically: the
    transfer-free schedule meets the gate-load bound exactly, so neither
    horizon order probes."""
    problem = tiny_problem("bottom", 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for strategy in STRATEGIES:
        report = SMTScheduler(strategy=strategy).schedule(problem)
        assert report.found and report.optimal
        assert report.schedule.num_stages == 2
        assert report.stages_tried == []
        assert report.upper_bound == 2
        assert report.upper_bound_source == "structured-airborne"
        assert report.schedule.num_transfer_stages == 0


@pytest.mark.parametrize("layout_kind, instance_name", SMOKE_CELLS)
def test_no_order_probes_the_structured_witness(layout_kind, instance_name):
    """Both orders hold the witness before the first probe, so neither
    probes at or above its stage count; linear walks up from the analytic
    bound and stops at the optimum or just below the witness."""
    problem = problem_from_document(smt_document(instance_name, layout_kind))
    reports = {
        strategy: SMTScheduler(strategy=strategy).schedule(problem) for strategy in STRATEGIES
    }
    for report in reports.values():
        assert report.found and report.optimal
        assert all(horizon < report.upper_bound for horizon in report.stages_tried)
    linear = reports["linear"]
    last = min(linear.schedule.num_stages, linear.upper_bound - 1)
    assert linear.stages_tried == list(range(linear.lower_bound, last + 1))


def test_bisection_probes_stay_within_the_bounds():
    report = SMTScheduler(
        time_limit_per_instance=300, strategy="bisection"
    ).schedule(tiny_problem("bottom", 3, [(0, 1), (1, 2), (0, 2)]))
    assert all(
        report.lower_bound <= probe <= report.upper_bound
        for probe in report.stages_tried
    )


@pytest.mark.parametrize("strategy, horizons", [("linear", [4, 5]), ("bisection", [5, 4])])
def test_report_statistics_cover_every_probe(strategy, horizons):
    """The report's SAT counters sum over the whole search, not just its
    last probe: replaying the probes by hand on an identical context (the
    flat core is deterministic) reproduces them as per-probe sums."""
    problem = tiny_problem("bottom", 3, [(0, 1), (1, 2), (0, 2)])
    limits = SearchLimits(time_limit=300)
    report = get_strategy(strategy).run(problem, limits)
    assert report.stages_tried == horizons
    # Both orders size their instance below the witness's 7 stages.
    assert report.upper_bound == 7
    context = SearchContext(problem, limits, report.upper_bound)
    probes = []
    for horizon in horizons:
        context.decide(horizon)
        probes.append(context.statistics())
    assert context.instance.max_stages == 6
    for key in ("sat_conflicts", "sat_decisions"):
        assert report.statistics[key] == sum(probe[key] for probe in probes)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_report_statistics_sum_the_probes_they_saw(strategy, monkeypatch):
    """Every probe's counters and encode/solve time reach the report;
    gauges come from the last probe."""
    probes, original = [], SearchContext.statistics
    monkeypatch.setattr(
        SearchContext,
        "statistics",
        lambda self: probes.append(original(self)) or probes[-1],
    )
    report = get_strategy(strategy).run(
        tiny_problem("bottom", 3, [(0, 1), (1, 2), (0, 2)]),
        SearchLimits(time_limit=300),
    )
    assert len(probes) == len(report.stages_tried) > 1
    for key in ("sat_conflicts", "sat_decisions", "encode_seconds", "solve_seconds"):
        assert report.statistics[key] == pytest.approx(sum(p[key] for p in probes))
    assert report.statistics["sat_variables"] == probes[-1]["sat_variables"]


def test_accumulate_statistics_sums_counters_and_keeps_gauges():
    first = {
        "solve_seconds": 1.0,
        "sat_conflicts": 10,
        "sat_conflicts_per_second": 10.0,
        "sat_variables": 50,
        "backend_retries": 1.0,
    }
    second = {
        "solve_seconds": 3.0,
        "sat_conflicts": 50,
        "sat_conflicts_per_second": 50 / 3,
        "sat_variables": 60,
        "backend_retries": 2.0,
    }
    total = accumulate_statistics(accumulate_statistics({}, first), second)
    assert total == {
        "solve_seconds": 4.0,
        "sat_conflicts": 60,
        "sat_conflicts_per_second": 15.0,
        "sat_variables": 60,
        "backend_retries": 2.0,
    }
    # A check cut short by an expired deadline repeats the previous
    # probe's figures; it did no work and adds nothing.
    expired = accumulate_statistics(total, {**second, "deadline_expired": 1.0})
    assert expired == {**total, "deadline_expired": 1.0}


def test_schedule_metadata_provenance_is_path_independent():
    """SMT-extracted schedules and the structured witness both carry the
    problem metadata and the winning strategy name."""
    probed = SMTScheduler(time_limit_per_instance=300, strategy="bisection").schedule(
        SchedulingProblem.from_gates(
            tiny_layout("bottom"), 3, [(0, 1), (1, 2)], metadata={"code": "chain"}
        )
    )
    degenerate = SMTScheduler(strategy="bisection").schedule(
        SchedulingProblem.from_gates(
            tiny_layout("bottom"), 2, [(0, 1)], metadata={"code": "pair"}
        )
    )
    linear = SMTScheduler(time_limit_per_instance=300).schedule(
        SchedulingProblem.from_gates(
            tiny_layout("bottom"), 2, [(0, 1)], metadata={"code": "pair"}
        )
    )
    assert probed.schedule.metadata["code"] == "chain"
    assert probed.schedule.metadata["strategy"] == "bisection"
    assert degenerate.schedule.metadata["code"] == "pair"
    assert degenerate.schedule.metadata["strategy"] == "bisection"
    assert linear.schedule.metadata["code"] == "pair"
    assert linear.schedule.metadata["strategy"] == "linear"
    for report in (probed, degenerate, linear):
        assert report.schedule.metadata["optimal"] is True


def test_reports_carry_bound_provenance():
    """Every strategy stamps the lower-bound certificate source and the
    witness choreography."""
    problem = tiny_problem("bottom", 3, [(0, 1), (1, 2), (0, 2)])
    linear = SMTScheduler(time_limit_per_instance=300, strategy="linear").schedule(
        problem
    )
    assert linear.lower_bound_source == "clique+transfer"
    assert linear.upper_bound_source == "structured-homes"
    bisection = SMTScheduler(
        time_limit_per_instance=300, strategy="bisection"
    ).schedule(problem)
    assert bisection.lower_bound_source == "clique+transfer"
    assert bisection.upper_bound_source == "structured-homes"


def test_bisection_certifies_shielded_storage_less_instances():
    """shielding=True on the storage-less layout: the airborne witness turns
    the previously open interval into a zero-probe certificate."""
    for gates, optimum in [
        ([(0, 1), (2, 3)], 1),
        ([(0, 1), (1, 2), (2, 3), (0, 3)], 2),
    ]:
        problem = SchedulingProblem.from_gates(
            tiny_layout("none"), 4, gates, shielding=True
        )
        report = SMTScheduler(strategy="bisection").schedule(problem)
        assert report.found and report.optimal
        assert report.stages_tried == []
        assert report.upper_bound == report.lower_bound == optimum
        assert report.upper_bound_source == "structured-airborne"
        validate_schedule(report.schedule, require_shielding=True)


def test_bisection_falls_back_to_witness_under_harsh_limits():
    """With a conflict budget too small to decide anything, the structured
    witness is still returned (anytime behaviour), flagged non-optimal."""
    problem = tiny_problem("bottom", 3, [(0, 1), (1, 2)])
    report = SMTScheduler(
        max_conflicts_per_instance=1, strategy="bisection"
    ).schedule(problem)
    assert report.found
    assert not report.optimal
    validate_schedule(report.schedule, require_shielding=True)


# --------------------------------------------------------------------------- #
# The structured witness
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_search_computes_the_witness_once_even_when_none_applies(
    strategy, monkeypatch
):
    """The search runs the constructive pass once, before the first probe,
    and a ``None`` (no choreography applies) leaves the interval open."""
    from repro.core.strategies import search

    calls = []
    real = search.structured_upper_bound

    def counting(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(search, "structured_upper_bound", counting)
    # Non-regular load on the shielded storage-less layout: no witness.
    problem = SchedulingProblem.from_gates(
        tiny_layout("none"), 3, [(0, 1), (1, 2)], shielding=True
    )
    limits = SearchLimits(max_stages=problem.lower_bound() + 1)
    report = get_strategy(strategy).run(problem, limits)
    assert len(calls) == 1
    assert report.upper_bound is None and not report.found


# --------------------------------------------------------------------------- #
# One in-process search per run
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("layout_kind, instance_name", SMOKE_CELLS)
def test_every_order_certifies_the_same_valid_schedule_size(layout_kind, instance_name):
    """Both horizon orders certify the same optimum on every smoke cell, and
    each certified schedule passes the independent validator and names the
    order that produced it.  The default order, ``linear``, probes no more
    horizons than ``bisection`` on any cell."""
    problem = problem_from_document(smt_document(instance_name, layout_kind))
    stage_counts = set()
    probes = {}
    for strategy in STRATEGIES:
        report = SMTScheduler(time_limit_per_instance=300, strategy=strategy).schedule(
            problem
        )
        assert report.found and report.optimal, strategy
        assert report.strategy == strategy
        assert report.schedule.metadata["strategy"] == strategy
        validate_schedule(report.schedule, require_shielding=problem.shielding)
        stage_counts.add(report.schedule.num_stages)
        probes[strategy] = len(report.stages_tried)
    assert len(stage_counts) == 1
    assert probes["linear"] <= probes["bisection"], probes


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_repeated_runs_repeat_the_whole_search(strategy):
    """A run is one deterministic search: the same problem gives the same
    probes, bounds, solver counters and schedule every time."""
    problem = tiny_problem("bottom", 3, [(0, 1), (1, 2), (0, 2)])
    first, second = (
        get_strategy(strategy).run(problem, SearchLimits(time_limit=300))
        for _ in range(2)
    )
    assert first.found and first.optimal
    assert first.schedule.num_stages == 5
    for field in ("stages_tried", "lower_bound", "upper_bound", "termination"):
        assert getattr(first, field) == getattr(second, field), field
    for key in ("sat_conflicts", "sat_decisions", "sat_propagations"):
        assert first.statistics[key] == second.statistics[key], key
    assert first.schedule.to_dict() == second.schedule.to_dict()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_closed_intervals_certify_without_encoding(strategy, monkeypatch):
    """Where the structured witness meets the analytic lower bound, the
    search answers with the witness and never builds an SMT instance."""
    from repro.core.strategies import base, search

    def refuse(*args, **kwargs):
        raise AssertionError("a closed interval must not be encoded")

    monkeypatch.setattr(base, "encode_incremental_problem", refuse)
    closed = 0
    for layout_kind, instance_name in SMOKE_CELLS:
        problem = problem_from_document(smt_document(instance_name, layout_kind))
        witness = search.structured_upper_bound(problem)
        if witness is None or witness.num_stages != problem.bound_breakdown().total:
            continue
        closed += 1
        report = get_strategy(strategy).run(problem, SearchLimits(time_limit=300))
        assert report.found and report.optimal, (layout_kind, instance_name)
        assert report.stages_tried == []
        assert report.lower_bound == report.upper_bound == report.schedule.num_stages
        assert report.schedule.metadata["backend"] == "structured"
        assert report.schedule.metadata["strategy"] == strategy
    # single-gate, disjoint-pairs and ring-4 on all three layouts.
    assert closed == 9
