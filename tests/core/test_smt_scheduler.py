"""Tests for the SMT formulation and the optimal scheduler.

The instances are intentionally tiny (2-4 qubits on reduced architectures):
the encoding is identical to the full-size one, and the pure-Python SAT core
decides these within seconds.
"""

import pytest

from repro.arch import reduced_layout
from repro.core.encoding import encode_problem
from repro.core.problem import SchedulingProblem
from repro.core.scheduler import SMTScheduler
from repro.core.structured import StructuredScheduler
from repro.core.validator import validate_schedule
from repro.smt import CheckResult


def tiny_layout(kind):
    return reduced_layout(kind, x_max=2, h_max=1, v_max=1, c_max=2, r_max=2)


def tiny_problem(kind, num_qubits, gates):
    return SchedulingProblem.from_gates(tiny_layout(kind), num_qubits, gates)


# --------------------------------------------------------------------------- #
# Fixed-stage encodings
# --------------------------------------------------------------------------- #
def test_single_gate_single_stage_is_sat():
    instance = encode_problem(tiny_problem("none", 2, [(0, 1)]), num_stages=1)
    assert instance.check().is_sat()
    schedule = instance.extract_schedule()
    validate_schedule(schedule, require_shielding=False)
    assert schedule.num_rydberg_stages == 1
    assert schedule.executed_gates == [(0, 1)]


def test_two_gates_sharing_a_qubit_need_two_stages():
    problem = tiny_problem("none", 3, [(0, 1), (1, 2)])
    too_small = encode_problem(problem, num_stages=1)
    assert too_small.check().is_unsat()
    enough = encode_problem(problem, num_stages=2)
    assert enough.check().is_sat()


def test_shielding_requires_extra_stage_on_zoned_layout():
    """The paper's Fig. 2 effect: the zoned layout needs a transfer stage."""
    problem = tiny_problem("bottom", 3, [(0, 1), (1, 2)])
    two_stages = encode_problem(problem, num_stages=2)
    assert two_stages.check().is_unsat()
    three_stages = encode_problem(problem, num_stages=3)
    assert three_stages.check().is_sat()
    schedule = three_stages.extract_schedule()
    validate_schedule(schedule)
    assert schedule.num_rydberg_stages == 2
    assert schedule.num_transfer_stages == 1
    assert schedule.total_unshielded_idle() == 0


def test_disjoint_gates_share_a_stage():
    instance = encode_problem(tiny_problem("none", 4, [(0, 1), (2, 3)]), num_stages=1)
    assert instance.check().is_sat()
    schedule = instance.extract_schedule()
    assert schedule.num_rydberg_stages == 1
    assert len(schedule.stages[0].gates) == 2


def test_invalid_gate_rejected():
    with pytest.raises(ValueError):
        SchedulingProblem.from_gates(tiny_layout("none"), 2, [(0, 0)])


def test_unknown_result_with_tiny_conflict_budget():
    instance = encode_problem(tiny_problem("bottom", 3, [(0, 1), (1, 2)]), num_stages=3)
    result = instance.check(max_conflicts=1)
    assert result in (CheckResult.UNKNOWN, CheckResult.SAT, CheckResult.UNSAT)


# --------------------------------------------------------------------------- #
# Iterative-deepening scheduler
# --------------------------------------------------------------------------- #
def test_scheduler_finds_minimum_stage_count():
    scheduler = SMTScheduler(time_limit_per_instance=120)
    report = scheduler.schedule(tiny_problem("none", 3, [(0, 1), (1, 2)]))
    assert report.found and report.optimal
    assert report.schedule.num_stages == 2
    assert report.stages_tried == [2]
    assert report.strategy == "linear"


def test_scheduler_zoned_layout_adds_transfer_stage():
    scheduler = SMTScheduler(time_limit_per_instance=120)
    report = scheduler.schedule(tiny_problem("bottom", 3, [(0, 1), (1, 2)]))
    assert report.found and report.optimal
    assert report.schedule.num_stages == 3
    assert report.schedule.num_transfer_stages == 1


def test_scheduler_respects_max_stages():
    scheduler = SMTScheduler(max_stages=1)
    report = scheduler.schedule(tiny_problem("bottom", 3, [(0, 1), (1, 2)]))
    assert not report.found
    assert report.schedule is None


def test_scheduler_rejects_raw_gate_lists():
    scheduler = SMTScheduler()
    with pytest.raises(TypeError):
        scheduler.schedule(2, [(0, 1)])


def test_scheduler_statistics_and_bound():
    problem = tiny_problem("none", 4, [(0, 1), (1, 2), (1, 3)])
    assert problem.lower_bound() == 3
    # The chain probes once (LB 2 < UB 4); a single gate would certify
    # from its witness with no probe and no statistics.
    report = SMTScheduler(time_limit_per_instance=120).schedule(
        tiny_problem("none", 3, [(0, 1), (1, 2)])
    )
    assert report.stages_tried == [2]
    assert report.statistics.get("sat_clauses", 0) > 0
    assert report.solver_seconds >= 0.0
    assert report.lower_bound == 2


# --------------------------------------------------------------------------- #
# Backend agreement
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "gates, num_qubits",
    [
        ([(0, 1)], 2),
        ([(0, 1), (2, 3)], 4),
        ([(0, 1), (1, 2)], 3),
    ],
)
def test_smt_never_needs_more_rydberg_stages_than_structured(gates, num_qubits):
    """The optimal backend is at least as good as the constructive one."""
    problem = tiny_problem("bottom", num_qubits, gates)
    smt = SMTScheduler(time_limit_per_instance=120).schedule(problem)
    structured = StructuredScheduler().schedule(problem)
    assert smt.found
    assert smt.schedule.num_rydberg_stages <= structured.num_rydberg_stages
    assert smt.schedule.num_stages <= structured.num_stages
