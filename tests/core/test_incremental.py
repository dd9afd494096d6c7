"""Tests for the incremental minimum-stage search.

The assumption-guarded stage extension must certify the minimal stage
count that fresh one-shot encodings (:func:`repro.core.encoding.encode_problem`)
confirm — SAT at the optimum, UNSAT one stage below — and validator-clean
schedules on every instance, while reusing one SAT solver across the whole
search.
"""

import pytest

from repro.arch import reduced_layout
from repro.core.encoding import encode_incremental_problem, encode_problem
from repro.core.problem import SchedulingProblem, problem_from_document
from repro.core.report import TERMINATION_CERTIFIED, TERMINATION_INFEASIBLE
from repro.core.scheduler import SMTScheduler
from repro.core.validator import validate_schedule
from repro.evaluation.runner import SMT_INSTANCES, smt_document
from repro.qec import get_code
from repro.qec.state_prep import state_preparation_circuit
from repro.smt import CheckResult, Solver


def tiny_layout(kind):
    return reduced_layout(kind, x_max=2, h_max=1, v_max=1, c_max=2, r_max=2)


def steane_subinstance(qubits=(0, 1, 2, 4, 5)):
    """Gates of the Steane prep circuit restricted to *qubits*, compacted."""
    prep = state_preparation_circuit(get_code("steane"))
    keep = set(qubits)
    remap = {q: i for i, q in enumerate(sorted(keep))}
    gates = [
        (remap[a], remap[b]) for a, b in prep.cz_gates if a in keep and b in keep
    ]
    assert gates, "sub-instance must keep at least one gate"
    return len(remap), gates


INSTANCES = {**SMT_INSTANCES, "steane-sub": steane_subinstance()}


# --------------------------------------------------------------------------- #
# Agreement with fresh one-shot encodings (the reference oracle)
# --------------------------------------------------------------------------- #
def assert_matches_one_shot_encodings(strategy, layout_kind, instance_name):
    """*strategy*'s certified optimum S* is SAT on a fresh encoding of S*
    stages and UNSAT on one of S* - 1 (checked unless the analytic lower
    bound already excludes S* - 1)."""
    num_qubits, gates = INSTANCES[instance_name]
    problem = SchedulingProblem.from_gates(tiny_layout(layout_kind), num_qubits, gates)
    report = SMTScheduler(
        time_limit_per_instance=300, strategy=strategy
    ).schedule(problem)
    assert report.found and report.optimal
    validate_schedule(report.schedule, require_shielding=problem.shielding)
    optimum = report.schedule.num_stages

    at_optimum = encode_problem(problem, optimum)
    assert at_optimum.check(time_limit=300) is CheckResult.SAT
    validate_schedule(
        at_optimum.extract_schedule(), require_shielding=problem.shielding
    )
    if optimum - 1 >= problem.lower_bound():
        below = encode_problem(problem, optimum - 1)
        assert below.check(time_limit=300) is CheckResult.UNSAT


@pytest.mark.parametrize("layout_kind", ["none", "bottom"])
@pytest.mark.parametrize("instance_name", list(INSTANCES))
def test_incremental_matches_coldstart(layout_kind, instance_name):
    """The linear search agrees with fresh one-shot encodings."""
    assert_matches_one_shot_encodings("linear", layout_kind, instance_name)


@pytest.mark.parametrize("layout_kind", ["none", "bottom"])
@pytest.mark.parametrize("instance_name", list(INSTANCES))
def test_bisection_matches_one_shot_encodings(layout_kind, instance_name):
    """Bisection probes out of order on the same growable instance (above
    the optimum, then below it); its optimum must still agree with fresh
    one-shot encodings."""
    assert_matches_one_shot_encodings("bisection", layout_kind, instance_name)


def test_incremental_scheduler_respects_max_stages():
    scheduler = SMTScheduler(max_stages=1)
    report = scheduler.schedule(
        SchedulingProblem.from_gates(tiny_layout("bottom"), 3, [(0, 1), (1, 2)])
    )
    assert not report.found
    assert report.schedule is None


@pytest.mark.parametrize("max_stages", [2, 3])
@pytest.mark.parametrize("strategy", ["linear", "bisection"])
def test_max_stages_caps_every_strategy(strategy, max_stages):
    """The chain's analytic lower bound is its optimum, 3: a cap below it is
    refuted without a probe, and a cap at it certifies with one probe."""
    report = SMTScheduler(max_stages=max_stages, strategy=strategy).schedule(
        SchedulingProblem.from_gates(tiny_layout("bottom"), 3, [(0, 1), (1, 2)])
    )
    if max_stages < 3:
        assert report.termination == TERMINATION_INFEASIBLE
        assert not report.found
        assert report.schedule is None
        assert report.stages_tried == []
    else:
        assert report.termination == TERMINATION_CERTIFIED
        assert report.optimal
        assert report.schedule.num_stages == 3
        assert report.stages_tried == [3]


def test_incremental_capacity_rebuild_still_optimal(monkeypatch):
    """Outgrowing the initial gate-stage capacity rebuilds transparently.

    The v2 analytic bounds start the triangle walk at 4, so a scheduler run
    no longer outgrows even a minimal headroom; the rebuild mechanics are
    driven through the shared ``SearchContext`` directly instead.
    """
    import repro.core.strategies.base as strategies_base
    from repro.core.strategies import SearchLimits
    from repro.core.strategies.base import SearchContext

    monkeypatch.setattr(strategies_base, "_CAPACITY_HEADROOM", 1)
    problem = SchedulingProblem.from_gates(
        tiny_layout("bottom"), 3, [(0, 1), (1, 2), (0, 2)]
    )
    context = SearchContext(problem, SearchLimits(time_limit=300))
    assert context.decide(4) is CheckResult.UNSAT
    first_instance = context.instance
    assert first_instance.max_stages < 7  # headroom of 1 above the horizon
    # Deciding beyond the capacity must rebuild a fresh, larger instance and
    # still answer correctly on both sides of the optimum (5 stages).
    assert context.decide(7) is CheckResult.SAT
    assert context.instance is not first_instance
    assert context.decide(5) is CheckResult.SAT
    schedule = context.extract(5)
    assert schedule.num_stages == 5
    validate_schedule(schedule, require_shielding=True)


@pytest.mark.parametrize(
    "instance_name, strategy, size",
    [
        ("triangle", "linear", (2_816, 10_103, 320)),
        ("triangle", "bisection", (2_816, 10_055, 272)),
        ("chain-2", "linear", (1_612, 5_572, 8)),
    ],
)
def test_search_formula_sizes_are_pinned(instance_name, strategy, size):
    """Final formula size and summed conflicts of a search on the bottom
    smoke layout; the search is deterministic, so these repeat exactly."""
    problem = problem_from_document(smt_document(instance_name, "bottom"))
    report = SMTScheduler(strategy=strategy).schedule(problem)
    stats = report.statistics
    assert (stats["sat_variables"], stats["sat_clauses"], stats["sat_conflicts"]) == size


def test_fixed_horizon_check_decides_the_exported_formula():
    """encode_problem's check runs on the same solver the search uses and
    decides exactly the formula its CNF export holds."""
    problem = problem_from_document(smt_document("triangle", "bottom"))
    instance = encode_problem(problem, 4)
    cnf = instance.solver.to_cnf()
    assert instance.check() is CheckResult.UNSAT
    assert instance.statistics()["sat_variables"] == cnf.num_vars == 2_210


# --------------------------------------------------------------------------- #
# Instance-level mechanics
# --------------------------------------------------------------------------- #
def test_incremental_instance_extends_in_place():
    problem = SchedulingProblem.from_gates(tiny_layout("bottom"), 3, [(0, 1), (1, 2)])
    instance = encode_incremental_problem(problem, num_stages=2, max_stages=6)
    solver = instance.solver
    assert instance.check(time_limit=300) is CheckResult.UNSAT
    clauses_after_first = solver.statistics()["sat_clauses"]
    instance.extend_to(3)
    assert instance.solver is solver, "extension must reuse the same solver"
    assert instance.check(time_limit=300) is CheckResult.SAT
    # The second check only encoded the delta on top of the existing clauses.
    assert solver.statistics()["sat_clauses"] > clauses_after_first
    schedule = instance.extract_schedule()
    validate_schedule(schedule)
    assert schedule.num_stages == 3


def test_incremental_instance_decides_smaller_horizons_in_place():
    """A grown instance still decides earlier horizons via assumptions."""
    problem = SchedulingProblem.from_gates(tiny_layout("bottom"), 3, [(0, 1), (1, 2)])
    instance = encode_incremental_problem(problem, num_stages=4, max_stages=6)
    assert instance.check(time_limit=300, horizon=4) is CheckResult.SAT
    assert instance.check(time_limit=300, horizon=2) is CheckResult.UNSAT
    assert instance.check(time_limit=300, horizon=3) is CheckResult.SAT
    schedule = instance.extract_schedule(horizon=3)
    validate_schedule(schedule)
    assert schedule.num_stages == 3
    with pytest.raises(ValueError):
        instance.check(horizon=5)
    with pytest.raises(ValueError):
        instance.check(horizon=0)


def test_incremental_instance_rejects_growth_beyond_capacity():
    problem = SchedulingProblem.from_gates(tiny_layout("none"), 2, [(0, 1)])
    instance = encode_incremental_problem(problem, num_stages=1, max_stages=2)
    instance.extend_to(2)
    with pytest.raises(ValueError):
        instance.extend_to(3)


def test_extend_to_is_idempotent():
    problem = SchedulingProblem.from_gates(tiny_layout("none"), 2, [(0, 1)])
    instance = encode_incremental_problem(problem, num_stages=1, max_stages=4)
    instance.extend_to(1)
    assert instance.num_stages == 1
    assert instance.check(time_limit=300) is CheckResult.SAT


# --------------------------------------------------------------------------- #
# SMT solver facade
# --------------------------------------------------------------------------- #
def test_incremental_solver_reuses_state_across_checks():
    solver = Solver()
    x = solver.int_var("x", 0, 7)
    flag = solver.bool_var("flag")
    solver.add(flag.implies(x >= 5))
    assert solver.check(assumptions=[flag]).is_sat()
    assert solver.model()[x] >= 5
    # The assumption is not asserted: without it, x is unconstrained.
    solver.add(x <= 4)
    assert solver.check().is_sat()
    assert solver.model()[x] <= 4
    # Under the assumption the combined constraints are now contradictory.
    assert solver.check(assumptions=[flag]).is_unsat()
    # ... but the formula itself stays satisfiable.
    assert solver.check().is_sat()


def test_solver_decides_under_assumptions():
    solver = Solver()
    a = solver.bool_var("a")
    b = solver.bool_var("b")
    solver.add(a | b)
    assert solver.check(assumptions=[~a, ~b]).is_unsat()
    assert solver.check(assumptions=[~a]).is_sat()
    assert solver.model()[b] is True
