"""Backend selection through the SMT facade, strategies, and scheduler.

The ``sat_backend`` knob must flow from ``SMTScheduler`` through
``SearchLimits`` and the shared ``SearchContext`` into the SMT solver's
backend construction — and every backend must certify the same optima,
with the chosen backend recorded on the report.
"""

import pytest

from repro.arch import reduced_layout
from repro.core.problem import SchedulingProblem
from repro.core.scheduler import SMTScheduler
from repro.core.strategies import SearchContext, SearchLimits
from repro.core.validator import validate_schedule
from repro.evaluation.runner import REDUCED_LAYOUT_KWARGS, SMT_INSTANCES
from repro.smt import Solver
from repro.smt.terms import IntConst

REDUCED = dict(REDUCED_LAYOUT_KWARGS)


def reduced_problem(layout_kind: str, instance: str) -> SchedulingProblem:
    num_qubits, gates = SMT_INSTANCES[instance]
    return SchedulingProblem.from_gates(
        reduced_layout(layout_kind, **REDUCED), num_qubits, gates
    )


# --------------------------------------------------------------------------- #
# SMT facade
# --------------------------------------------------------------------------- #
def test_smt_solver_on_the_reference_backend():
    solver = Solver(backend="reference")
    assert solver.backend == "reference"
    x = solver.int_var("x", 0, 7)
    solver.add(x + IntConst(2) == 5)
    assert solver.check().is_sat()
    assert solver.model()[x] == 3
    stats = solver.statistics()
    assert stats["sat_variables"] > 0
    assert stats["sat_propagations_per_second"] >= 0.0


def test_smt_solver_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown SAT backend"):
        Solver(backend="no-such-backend")


def test_smt_solver_refuses_assumptions_on_incapable_backends():
    """Assumptions are semantics, not heuristics: a backend that ignored
    them would certify wrong optima, so the facade must fail loudly."""
    solver = Solver()
    flag = solver.bool_var("flag")
    solver.add(flag | ~flag)
    # Simulate a backend advertising no assumption support.
    solver._sat_solver.supports_assumptions = False
    assert solver.check().is_sat()  # assumption-free checks still fine
    with pytest.raises(RuntimeError, match="does not support assumptions"):
        solver.check(assumptions=[flag])


def test_smt_solver_on_the_subprocess_backend(fake_sat_solver):
    solver = Solver(backend="dimacs-subprocess")
    x = solver.int_var("x", 0, 7)
    flag = solver.bool_var("flag")
    solver.add(x == 5)
    assert solver.check().is_sat()
    assert solver.model()[x] == 5
    stats = solver.statistics()
    assert stats["sat_variables"] > 0
    assert stats["sat_clauses"] > 0
    assert stats["sat_subprocess_solves"] == 1
    # No propagation telemetry through a pipe: the rate keys are absent,
    # not reported as misleading zeros.
    assert "sat_propagations_per_second" not in stats
    assert "sat_conflicts_per_second" not in stats
    # Incremental re-check with an added constraint and an assumption.
    solver.add(x <= 5)
    assert solver.check(assumptions=[flag]).is_sat()
    assert solver.model()[flag] is True
    assert solver.statistics()["sat_subprocess_solves"] == 1  # per-check delta


# --------------------------------------------------------------------------- #
# Strategy layer
# --------------------------------------------------------------------------- #
def test_search_context_builds_instances_on_the_requested_backend():
    problem = reduced_problem("none", "single-gate")
    context = SearchContext(problem, SearchLimits(sat_backend="reference"))
    assert context.decide(1).is_sat()
    assert context.instance.solver.backend == "reference"


@pytest.mark.parametrize("strategy", ["linear", "bisection"])
def test_reference_backend_certifies_identical_optima(strategy):
    problem = reduced_problem("bottom", "chain-2")
    flat = SMTScheduler(strategy=strategy).schedule(problem)
    reference = SMTScheduler(
        strategy=strategy, sat_backend="reference"
    ).schedule(problem)
    assert flat.sat_backend == "flat"
    assert reference.sat_backend == "reference"
    for report in (flat, reference):
        assert report.found and report.optimal
        validate_schedule(report.schedule, require_shielding=problem.shielding)
    assert reference.schedule.num_stages == flat.schedule.num_stages
    assert reference.stages_tried == flat.stages_tried


def test_subprocess_backend_certifies_identical_optima(fake_sat_solver):
    problem = reduced_problem("none", "single-gate")
    flat = SMTScheduler(strategy="linear").schedule(problem)
    external = SMTScheduler(
        strategy="linear", sat_backend="dimacs-subprocess"
    ).schedule(problem)
    assert external.sat_backend == "dimacs-subprocess"
    assert external.found and external.optimal
    assert external.schedule.num_stages == flat.schedule.num_stages
    validate_schedule(external.schedule, require_shielding=problem.shielding)


def test_scheduler_rejects_unknown_or_unavailable_backends(monkeypatch):
    from repro.sat.backend import SOLVER_BINARY_ENV

    with pytest.raises(ValueError, match="unknown SAT backend"):
        SMTScheduler(sat_backend="no-such-backend")
    monkeypatch.setenv(SOLVER_BINARY_ENV, "/nonexistent/solver-binary")
    with pytest.raises(ValueError, match="unavailable"):
        SMTScheduler(sat_backend="dimacs-subprocess")
