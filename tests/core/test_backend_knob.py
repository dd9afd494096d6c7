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


def test_smt_solver_on_the_ipasir_backend(toy_env):
    solver = Solver(backend="ipasir")
    x = solver.int_var("x", 0, 7)
    flag = solver.bool_var("flag")
    solver.add(x == 5)
    assert solver.check().is_sat()
    assert solver.model()[x] == 5
    stats = solver.statistics()
    assert stats["sat_variables"] > 0
    assert stats["sat_clauses"] > 0
    assert stats["sat_ipasir_solves"] == 1
    # The library keeps no propagation counter: that rate key is absent, not
    # reported as a misleading zero.  The toy exports ``ccadical_conflicts``,
    # so the conflict rate is present.
    assert "sat_propagations_per_second" not in stats
    assert "sat_conflicts_per_second" in stats
    # Incremental re-check with an added constraint and an assumption.
    solver.add(x <= 5)
    assert solver.check(assumptions=[flag]).is_sat()
    assert solver.model()[flag] is True
    assert solver.statistics()["sat_ipasir_solves"] == 1  # per-check delta
    assert solver.check(assumptions=[~flag]).is_sat()
    assert solver.model()[flag] is False  # the assumption held for one check


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


def test_ipasir_backend_certifies_identical_optima(toy_env):
    # Linear probes one horizon here ([2]); the external backend decides it.
    problem = reduced_problem("none", "chain-2")
    flat = SMTScheduler(strategy="linear").schedule(problem)
    external = SMTScheduler(strategy="linear", sat_backend="ipasir").schedule(problem)
    assert external.sat_backend == "ipasir"
    assert external.stages_tried == flat.stages_tried == [2]
    assert external.found and external.optimal
    assert external.schedule.num_stages == flat.schedule.num_stages
    validate_schedule(external.schedule, require_shielding=problem.shielding)


def test_scheduler_rejects_unknown_or_unavailable_backends(monkeypatch, deleted_backend):
    from repro.sat.ipasir import IPASIR_LIB_ENV

    for name in ("no-such-backend", deleted_backend):
        with pytest.raises(ValueError, match="unknown SAT backend"):
            SMTScheduler(sat_backend=name)
    monkeypatch.setenv(IPASIR_LIB_ENV, "/nonexistent")
    for name in ("ipasir", "chaos:ipasir"):
        with pytest.raises(ValueError, match="unavailable"):
            SMTScheduler(sat_backend=name)
